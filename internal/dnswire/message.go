package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by message packing and unpacking.
var (
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	ErrTooManyRecords   = errors.New("dnswire: section count exceeds 4096")
	ErrMessageTooLarge  = errors.New("dnswire: packed message exceeds 65535 bytes")
)

// maxSectionRecords bounds per-section record counts on decode so that a
// hostile header cannot force large allocations.
const maxSectionRecords = 4096

// The shortest encodings of a question (root name, type, class) and of a
// record (root name, type, class, TTL, RDLENGTH). Unpack presizes a section
// to its header count capped by how many of these the remaining bytes could
// hold, so a header that lies about its counts allocates nothing extra.
const (
	minQuestionLen = 5
	minRRLen       = 11
)

// MaxUDPPayload is the classic DNS UDP payload limit; responses larger than
// the negotiated payload size are truncated with the TC bit set.
const MaxUDPPayload = 512

// Flags holds the header bit fields of a DNS message.
type Flags struct {
	Response           bool   // QR
	OpCode             OpCode // four-bit opcode
	Authoritative      bool   // AA
	Truncated          bool   // TC
	RecursionDesired   bool   // RD
	RecursionAvailable bool   // RA
	RCode              RCode  // four-bit response code
}

func (f Flags) pack() uint16 {
	var v uint16
	if f.Response {
		v |= 1 << 15
	}
	v |= uint16(f.OpCode&0xF) << 11
	if f.Authoritative {
		v |= 1 << 10
	}
	if f.Truncated {
		v |= 1 << 9
	}
	if f.RecursionDesired {
		v |= 1 << 8
	}
	if f.RecursionAvailable {
		v |= 1 << 7
	}
	v |= uint16(f.RCode & 0xF)
	return v
}

func unpackFlags(v uint16) Flags {
	return Flags{
		Response:           v&(1<<15) != 0,
		OpCode:             OpCode(v >> 11 & 0xF),
		Authoritative:      v&(1<<10) != 0,
		Truncated:          v&(1<<9) != 0,
		RecursionDesired:   v&(1<<8) != 0,
		RecursionAvailable: v&(1<<7) != 0,
		RCode:              RCode(v & 0xF),
	}
}

// Question is a DNS question section entry.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RR is a resource record: an owner name plus typed RDATA.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// String renders the record in zone-file presentation format.
func (rr RR) String() string {
	return fmt.Sprintf("%s %d %s %s %s", rr.Name, rr.TTL, rr.Class, rr.Type, rr.Data)
}

// Message is a complete DNS message.
type Message struct {
	ID        uint16
	Flags     Flags
	Questions []Question
	Answers   []RR
	Authority []RR
	Extra     []RR
}

// NewQuery builds a standard query message for one question.
func NewQuery(id uint16, name string, qtype Type) *Message {
	return &Message{
		ID:    id,
		Flags: Flags{RecursionDesired: true},
		Questions: []Question{{
			Name:  name,
			Type:  qtype,
			Class: ClassIN,
		}},
	}
}

// Reply builds a response skeleton mirroring the query's ID and question.
func (m *Message) Reply() *Message {
	r := new(Message)
	r.SetReply(m)
	r.Questions = append([]Question(nil), m.Questions...)
	return r
}

// SetReply makes m the response skeleton to q that Reply builds, with
// empty sections, but sharing q's question slice instead of copying it.
func (m *Message) SetReply(q *Message) {
	*m = Message{
		ID: q.ID,
		Flags: Flags{
			Response:         true,
			OpCode:           q.Flags.OpCode,
			RecursionDesired: q.Flags.RecursionDesired,
		},
		Questions: q.Questions,
	}
}

// Pack encodes the message into wire format with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(nil)
}

// AppendPack appends the wire encoding of the message to buf. Compression
// offsets are computed relative to the start of the appended message, so
// buf must be empty or the caller must only use the appended bytes as a
// standalone datagram starting at the original length of buf.
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	comp := compPool.Get().(*compressor)
	buf, err := m.appendPack(buf, comp)
	comp.release()
	return buf, err
}

// appendPack is AppendPack over a given, empty compressor; nil disables
// name compression.
func (m *Message) appendPack(buf []byte, comp *compressor) ([]byte, error) {
	base := len(buf)
	if comp != nil {
		comp.base = base
	}
	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[0:], m.ID)
	binary.BigEndian.PutUint16(hdr[2:], m.Flags.pack())
	for i, n := range [4]int{len(m.Questions), len(m.Answers), len(m.Authority), len(m.Extra)} {
		if n > maxSectionRecords {
			return nil, ErrTooManyRecords
		}
		binary.BigEndian.PutUint16(hdr[4+2*i:], uint16(n))
	}
	buf = append(buf, hdr[:]...)

	var err error
	for _, q := range m.Questions {
		if buf, err = comp.appendName(buf, q.Name); err != nil {
			return nil, err
		}
		buf = be16(buf, uint16(q.Type))
		buf = be16(buf, uint16(q.Class))
	}
	for _, sec := range [3][]RR{m.Answers, m.Authority, m.Extra} {
		for i := range sec {
			if buf, err = appendRR(buf, &sec[i], comp); err != nil {
				return nil, err
			}
		}
	}
	if len(buf)-base > 0xFFFF {
		return nil, ErrMessageTooLarge
	}
	return buf, nil
}

func be16(buf []byte, v uint16) []byte {
	return append(buf, byte(v>>8), byte(v))
}

func be32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendRR(buf []byte, rr *RR, comp *compressor) ([]byte, error) {
	var err error
	if buf, err = comp.appendName(buf, rr.Name); err != nil {
		return nil, err
	}
	buf = be16(buf, uint16(rr.Type))
	buf = be16(buf, uint16(rr.Class))
	buf = be32(buf, rr.TTL)
	// Reserve RDLENGTH and backfill once the RDATA is encoded.
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	if rr.Data == nil {
		return nil, fmt.Errorf("dnswire: record %s %s has nil RDATA", rr.Name, rr.Type)
	}
	if buf, err = rr.Data.appendRData(buf, comp); err != nil {
		return nil, err
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("dnswire: RDATA of %s exceeds 65535 bytes", rr.Name)
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

// Unpack decodes a wire-format message.
func Unpack(data []byte) (*Message, error) {
	m := new(Message)
	counts, off, err := unpackHeader(data, m)
	if err != nil {
		return nil, err
	}
	for sec, dst := range [3]*[]RR{&m.Answers, &m.Authority, &m.Extra} {
		if n := min(counts[sec+1], (len(data)-off)/minRRLen); n > 0 {
			*dst = make([]RR, 0, n)
		}
		for i := 0; i < counts[sec+1]; i++ {
			var rr RR
			if rr, off, err = unpackRR(data, off); err != nil {
				return nil, err
			}
			*dst = append(*dst, rr)
		}
	}
	return m, nil
}

// UnpackQuery decodes a query as an authoritative server reads one. The
// header and the questions go into m, whose question slice is reused and
// whose sections are left empty; the answer, authority and additional
// records are checked as Unpack checks them, but not kept. It returns the
// CLASS of the first OPT record in the additional section — the EDNS0
// payload size the sender accepts — or 0 without one. UnpackQuery rejects
// exactly the messages Unpack rejects, and decodes a question and an
// EDNS0 record with one allocation, the question's name.
func UnpackQuery(data []byte, m *Message) (ednsSize int, err error) {
	counts, off, err := unpackHeader(data, m)
	if err != nil {
		return 0, err
	}
	sawOPT := false
	for i := 0; i < counts[1]+counts[2]+counts[3]; i++ {
		var rr RR
		var rdlen int
		// An EDNS0 record's root owner decodes without allocating, and
		// its RDATA cannot fail to decode, so it is only bounds-checked.
		if rr, rdlen, off, err = unpackRRHeader(data, off); err != nil {
			return 0, err
		}
		if rr.Type != TypeOPT {
			if _, err := unpackRData(rr.Type, data, off, rdlen); err != nil {
				return 0, err
			}
		} else if !sawOPT && i >= counts[1]+counts[2] {
			sawOPT, ednsSize = true, int(rr.Class)
		}
		off += rdlen
	}
	return ednsSize, nil
}

// unpackHeader decodes the header and the question section into m, which
// it resets but for the capacity of its question slice, and returns the
// four section counts and the offset of the answer section.
func unpackHeader(data []byte, m *Message) (counts [4]int, off int, err error) {
	if len(data) < 12 {
		return counts, 0, ErrTruncatedMessage
	}
	*m = Message{
		ID:        binary.BigEndian.Uint16(data[0:]),
		Flags:     unpackFlags(binary.BigEndian.Uint16(data[2:])),
		Questions: m.Questions[:0],
	}
	for i := range counts {
		counts[i] = int(binary.BigEndian.Uint16(data[4+2*i:]))
		if counts[i] > maxSectionRecords {
			return counts, 0, ErrTooManyRecords
		}
	}
	off = 12
	if n := min(counts[0], (len(data)-off)/minQuestionLen); n > cap(m.Questions) {
		m.Questions = make([]Question, 0, n)
	}
	for i := 0; i < counts[0]; i++ {
		var q Question
		if q.Name, off, err = unpackName(data, off); err != nil {
			return counts, 0, err
		}
		if off+4 > len(data) {
			return counts, 0, ErrTruncatedMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(data[off:]))
		q.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	return counts, off, nil
}

func unpackRR(data []byte, off int) (RR, int, error) {
	rr, rdlen, off, err := unpackRRHeader(data, off)
	if err != nil {
		return rr, 0, err
	}
	rr.Data, err = unpackRData(rr.Type, data, off, rdlen)
	if err != nil {
		return rr, 0, err
	}
	return rr, off + rdlen, nil
}

// unpackRRHeader decodes a record's owner and fixed fields, and returns
// the RDATA's length and offset, checked to lie within data.
func unpackRRHeader(data []byte, off int) (RR, int, int, error) {
	var rr RR
	var err error
	if rr.Name, off, err = unpackName(data, off); err != nil {
		return rr, 0, 0, err
	}
	if off+10 > len(data) {
		return rr, 0, 0, ErrTruncatedMessage
	}
	rr.Type = Type(binary.BigEndian.Uint16(data[off:]))
	rr.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
	rr.TTL = binary.BigEndian.Uint32(data[off+4:])
	rdlen := int(binary.BigEndian.Uint16(data[off+8:]))
	off += 10
	if off+rdlen > len(data) {
		return rr, 0, 0, ErrTruncatedMessage
	}
	return rr, rdlen, off, nil
}
