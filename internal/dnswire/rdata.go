package dnswire

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// RData is the typed payload of a resource record. Implementations encode
// themselves into wire format (compressing embedded names where RFC 1035
// permits) and render presentation format via String.
type RData interface {
	fmt.Stringer
	appendRData(buf []byte, comp *compressor) ([]byte, error)
}

// ErrBadRData reports malformed RDATA encountered during decoding.
var ErrBadRData = errors.New("dnswire: malformed RDATA")

// A is the RDATA of an A record (RFC 1035 §3.4.1).
type A struct {
	Addr netip.Addr // must be IPv4
}

func (a A) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	if !a.Addr.Is4() {
		return nil, fmt.Errorf("dnswire: A record address %v is not IPv4", a.Addr)
	}
	b := a.Addr.As4()
	return append(buf, b[:]...), nil
}

// String renders the address in dotted-quad form.
func (a A) String() string { return a.Addr.String() }

// AAAA is the RDATA of an AAAA record (RFC 3596).
type AAAA struct {
	Addr netip.Addr // must be IPv6
}

func (a AAAA) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	if !a.Addr.Is6() || a.Addr.Is4In6() {
		return nil, fmt.Errorf("dnswire: AAAA record address %v is not IPv6", a.Addr)
	}
	b := a.Addr.As16()
	return append(buf, b[:]...), nil
}

// String renders the address in RFC 5952 form.
func (a AAAA) String() string { return a.Addr.String() }

// CNAME is the RDATA of a CNAME record: the canonical name of the alias.
type CNAME struct {
	Target string
}

func (c CNAME) appendRData(buf []byte, comp *compressor) ([]byte, error) {
	return comp.appendName(buf, c.Target)
}

// String returns the target name.
func (c CNAME) String() string { return c.Target }

// NS is the RDATA of an NS record: the host name of an authoritative server.
type NS struct {
	Host string
}

func (n NS) appendRData(buf []byte, comp *compressor) ([]byte, error) {
	return comp.appendName(buf, n.Host)
}

// String returns the name server host name.
func (n NS) String() string { return n.Host }

// PTR is the RDATA of a PTR record.
type PTR struct {
	Target string
}

func (p PTR) appendRData(buf []byte, comp *compressor) ([]byte, error) {
	return comp.appendName(buf, p.Target)
}

// String returns the pointer target.
func (p PTR) String() string { return p.Target }

// MX is the RDATA of an MX record.
type MX struct {
	Preference uint16
	Host       string
}

func (m MX) appendRData(buf []byte, comp *compressor) ([]byte, error) {
	buf = be16(buf, m.Preference)
	return comp.appendName(buf, m.Host)
}

// String renders "preference host".
func (m MX) String() string { return fmt.Sprintf("%d %s", m.Preference, m.Host) }

// SOA is the RDATA of an SOA record (RFC 1035 §3.3.13).
type SOA struct {
	MName   string // primary name server
	RName   string // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

func (s SOA) appendRData(buf []byte, comp *compressor) ([]byte, error) {
	var err error
	if buf, err = comp.appendName(buf, s.MName); err != nil {
		return nil, err
	}
	if buf, err = comp.appendName(buf, s.RName); err != nil {
		return nil, err
	}
	buf = be32(buf, s.Serial)
	buf = be32(buf, s.Refresh)
	buf = be32(buf, s.Retry)
	buf = be32(buf, s.Expire)
	buf = be32(buf, s.Minimum)
	return buf, nil
}

// String renders the SOA fields in zone-file order.
func (s SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		s.MName, s.RName, s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
}

// TXT is the RDATA of a TXT record: one or more character strings.
type TXT struct {
	Strings []string
}

func (t TXT) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	if len(t.Strings) == 0 {
		// RFC 1035 requires at least one (possibly empty) string.
		return append(buf, 0), nil
	}
	for _, s := range t.Strings {
		if len(s) > 255 {
			return nil, fmt.Errorf("dnswire: TXT string exceeds 255 bytes")
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, nil
}

// String renders each string quoted.
func (t TXT) String() string {
	parts := make([]string, len(t.Strings))
	for i, s := range t.Strings {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

// OPT is the RDATA of an EDNS0 OPT pseudo-record (RFC 6891). Only the
// payload-size negotiation carried in the record's class field matters to
// this system; options are kept opaque.
type OPT struct {
	Options []byte
}

func (o OPT) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	return append(buf, o.Options...), nil
}

// String renders the raw option bytes length.
func (o OPT) String() string { return fmt.Sprintf("OPT(%d bytes)", len(o.Options)) }

// Raw carries RDATA of types this package does not model.
type Raw struct {
	Bytes []byte
}

func (r Raw) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	return append(buf, r.Bytes...), nil
}

// String renders the byte length.
func (r Raw) String() string { return fmt.Sprintf("\\# %d", len(r.Bytes)) }

func unpackRData(t Type, msg []byte, off, rdlen int) (RData, error) {
	end := off + rdlen
	switch t {
	case TypeA:
		if rdlen != 4 {
			return nil, fmt.Errorf("%w: A RDATA length %d", ErrBadRData, rdlen)
		}
		return A{Addr: netip.AddrFrom4([4]byte(msg[off:end]))}, nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, fmt.Errorf("%w: AAAA RDATA length %d", ErrBadRData, rdlen)
		}
		return AAAA{Addr: netip.AddrFrom16([16]byte(msg[off:end]))}, nil
	case TypeCNAME:
		name, n, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		if n != end {
			return nil, fmt.Errorf("%w: CNAME trailing bytes", ErrBadRData)
		}
		return CNAME{Target: name}, nil
	case TypeNS:
		name, n, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		if n != end {
			return nil, fmt.Errorf("%w: NS trailing bytes", ErrBadRData)
		}
		return NS{Host: name}, nil
	case TypePTR:
		name, n, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		if n != end {
			return nil, fmt.Errorf("%w: PTR trailing bytes", ErrBadRData)
		}
		return PTR{Target: name}, nil
	case TypeMX:
		if rdlen < 3 {
			return nil, fmt.Errorf("%w: MX RDATA length %d", ErrBadRData, rdlen)
		}
		pref := uint16(msg[off])<<8 | uint16(msg[off+1])
		name, n, err := unpackName(msg, off+2)
		if err != nil {
			return nil, err
		}
		if n != end {
			return nil, fmt.Errorf("%w: MX trailing bytes", ErrBadRData)
		}
		return MX{Preference: pref, Host: name}, nil
	case TypeSOA:
		var s SOA
		var err error
		var n int
		if s.MName, n, err = unpackName(msg, off); err != nil {
			return nil, err
		}
		if s.RName, n, err = unpackName(msg, n); err != nil {
			return nil, err
		}
		if n+20 != end {
			return nil, fmt.Errorf("%w: SOA numeric fields", ErrBadRData)
		}
		s.Serial = beU32(msg[n:])
		s.Refresh = beU32(msg[n+4:])
		s.Retry = beU32(msg[n+8:])
		s.Expire = beU32(msg[n+12:])
		s.Minimum = beU32(msg[n+16:])
		return s, nil
	case TypeTXT:
		var t TXT
		for p := off; p < end; {
			l := int(msg[p])
			p++
			if p+l > end {
				return nil, fmt.Errorf("%w: TXT string overruns RDATA", ErrBadRData)
			}
			t.Strings = append(t.Strings, string(msg[p:p+l]))
			p += l
		}
		return t, nil
	case TypeOPT:
		return OPT{Options: append([]byte(nil), msg[off:end]...)}, nil
	default:
		return Raw{Bytes: append([]byte(nil), msg[off:end]...)}, nil
	}
}

func beU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
