// Package dnswire implements the DNS wire format (RFC 1035, with the AAAA
// record from RFC 3596 and minimal EDNS0 from RFC 6891) from scratch on top
// of the standard library.
//
// The package provides a Message type that packs to and unpacks from the
// binary format used on the wire, including name compression on encode and
// pointer-safe decompression on decode. It is the lowest layer of the
// reproduction's measurement stack: the authoritative server
// (internal/dnsserver) and the measuring resolver (internal/dnsclient)
// exchange []byte datagrams produced and consumed here.
package dnswire

import "fmt"

// Type is a DNS resource record type (RFC 1035 §3.2.2).
type Type uint16

// Resource record types used by the measurement system.
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeAXFR  Type = 252
	TypeANY   Type = 255
)

var typeNames = map[Type]string{
	TypeNone:  "NONE",
	TypeA:     "A",
	TypeNS:    "NS",
	TypeCNAME: "CNAME",
	TypeSOA:   "SOA",
	TypePTR:   "PTR",
	TypeMX:    "MX",
	TypeTXT:   "TXT",
	TypeAAAA:  "AAAA",
	TypeOPT:   "OPT",
	TypeAXFR:  "AXFR",
	TypeANY:   "ANY",
}

// String returns the conventional mnemonic for t ("A", "CNAME", ...).
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class (RFC 1035 §3.2.4). Only IN is used in practice.
type Class uint16

// DNS classes.
const (
	ClassIN  Class = 1
	ClassANY Class = 255
)

// String returns the conventional mnemonic for c.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// OpCode is a DNS operation code.
type OpCode uint8

// Operation codes.
const (
	OpQuery  OpCode = 0
	OpStatus OpCode = 2
)

// RCode is a DNS response code.
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

var rcodeNames = map[RCode]string{
	RCodeNoError:  "NOERROR",
	RCodeFormErr:  "FORMERR",
	RCodeServFail: "SERVFAIL",
	RCodeNXDomain: "NXDOMAIN",
	RCodeNotImp:   "NOTIMP",
	RCodeRefused:  "REFUSED",
}

// String returns the conventional mnemonic for rc.
func (rc RCode) String() string {
	if s, ok := rcodeNames[rc]; ok {
		return s
	}
	return fmt.Sprintf("RCODE%d", uint8(rc))
}

func lowerByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}
