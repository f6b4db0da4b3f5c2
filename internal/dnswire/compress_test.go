package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// The map compressor AppendPack used before the pooled array one, kept as
// the oracle for wire-byte identity: the same suffix must be compressed
// against the same earlier offset, whatever data structure remembers it.

func oracleAppendName(buf []byte, base int, name string, comp map[string]int) ([]byte, error) {
	if name == "" || name == "." {
		return append(buf, 0), nil
	}
	rest := name
	for rest != "" {
		if off, ok := comp[rest]; ok && off <= 0x3FFF {
			return append(buf, 0xC0|byte(off>>8), byte(off)), nil
		}
		if len(buf)-base <= 0x3FFF {
			comp[rest] = len(buf) - base
		}
		label := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			label, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if label == "" {
			return nil, ErrEmptyLabel
		}
		if len(label) > maxLabelLen {
			return nil, ErrLabelTooLong
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// oracleAppendPack encodes m after buf with the map compressor. It covers
// the RDATA types the identity test generates.
func oracleAppendPack(m *Message, buf []byte) ([]byte, error) {
	base := len(buf)
	comp := map[string]int{}
	name := func(n string) (err error) {
		buf, err = oracleAppendName(buf, base, n, comp)
		return err
	}
	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[0:], m.ID)
	binary.BigEndian.PutUint16(hdr[2:], m.Flags.pack())
	for i, n := range [4]int{len(m.Questions), len(m.Answers), len(m.Authority), len(m.Extra)} {
		binary.BigEndian.PutUint16(hdr[4+2*i:], uint16(n))
	}
	buf = append(buf, hdr[:]...)
	for _, q := range m.Questions {
		if err := name(q.Name); err != nil {
			return nil, err
		}
		buf = be16(buf, uint16(q.Type))
		buf = be16(buf, uint16(q.Class))
	}
	for _, sec := range [3][]RR{m.Answers, m.Authority, m.Extra} {
		for _, rr := range sec {
			if err := name(rr.Name); err != nil {
				return nil, err
			}
			buf = be16(buf, uint16(rr.Type))
			buf = be16(buf, uint16(rr.Class))
			buf = be32(buf, rr.TTL)
			lenAt := len(buf)
			buf = append(buf, 0, 0)
			var err error
			switch d := rr.Data.(type) {
			case CNAME:
				err = name(d.Target)
			case NS:
				err = name(d.Host)
			case MX:
				buf = be16(buf, d.Preference)
				err = name(d.Host)
			case SOA:
				if err = name(d.MName); err == nil {
					err = name(d.RName)
				}
				for _, v := range [5]uint32{d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum} {
					buf = be32(buf, v)
				}
			default: // no embedded names
				buf, err = rr.Data.appendRData(buf, nil)
			}
			if err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint16(buf[lenAt:], uint16(len(buf)-lenAt-2))
		}
	}
	return buf, nil
}

// identityMessage draws a message whose names come from a small label
// pool, so suffixes repeat at every depth.
func identityMessage(r *rand.Rand, records int) *Message {
	labels := []string{"a", "b", "ns1", "ns2", "www", "cdn", "examp", "foob", "mail", "x-1"}
	tlds := []string{"le", "ar", "com", "net"}
	name := func() string {
		switch r.Intn(12) {
		case 0:
			return "."
		case 1:
			return tlds[r.Intn(len(tlds))] // shares only a TLD with others
		}
		n := 1 + r.Intn(4)
		parts := make([]string, n, n+1)
		for i := range parts {
			parts[i] = labels[r.Intn(len(labels))]
		}
		return strings.Join(append(parts, tlds[r.Intn(len(tlds))]), ".")
	}
	rr := func() RR {
		out := RR{Name: name(), Class: ClassIN, TTL: r.Uint32()}
		switch r.Intn(7) {
		case 0:
			out.Type, out.Data = TypeA, A{Addr: mustAddr("10.1.2.3")}
		case 1:
			out.Type, out.Data = TypeCNAME, CNAME{Target: name()}
		case 2:
			out.Type, out.Data = TypeNS, NS{Host: name()}
		case 3:
			out.Type, out.Data = TypeMX, MX{Preference: uint16(r.Intn(100)), Host: name()}
		case 4:
			out.Type, out.Data = TypeSOA, SOA{MName: name(), RName: name(), Serial: r.Uint32()}
		case 5:
			out.Type, out.Data = TypeTXT, TXT{Strings: []string{"v=spf1", name()}}
		default:
			out.Type, out.Data = TypeAAAA, AAAA{Addr: mustAddr("2001:db8::1")}
		}
		return out
	}
	m := NewQuery(uint16(r.Uint32()), name(), TypeA).Reply()
	for i := 0; i < records; i++ {
		switch r.Intn(3) {
		case 0:
			m.Answers = append(m.Answers, rr())
		case 1:
			m.Authority = append(m.Authority, rr())
		default:
			m.Extra = append(m.Extra, rr())
		}
	}
	return m
}

// distinctSuffixes counts the suffixes a compressor would be offered.
func distinctSuffixes(wire []byte) int {
	m, err := Unpack(wire)
	if err != nil {
		return 0
	}
	seen := map[string]bool{}
	add := func(n string) {
		for ; n != "."; n = Parent(n) {
			seen[n] = true
		}
	}
	for _, q := range m.Questions {
		add(q.Name)
	}
	for _, sec := range [3][]RR{m.Answers, m.Authority, m.Extra} {
		for _, rr := range sec {
			add(rr.Name)
		}
	}
	return len(seen)
}

func TestAppendPackMatchesMapCompressor(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	spilled, based := 0, 0
	for i := 0; i < 2000; i++ {
		records := r.Intn(8)
		if i%10 == 0 {
			records = 20 + r.Intn(40) // more suffixes than the array holds
		}
		m := identityMessage(r, records)
		var prefix []byte
		if i%3 == 0 {
			prefix = bytes.Repeat([]byte{0xEE}, 1+r.Intn(300)) // non-zero base
			based++
		}
		want, err := oracleAppendPack(m, prefix)
		if err != nil {
			t.Fatalf("message %d: oracle: %v", i, err)
		}
		got, err := m.AppendPack(prefix)
		if err != nil {
			t.Fatalf("message %d: AppendPack: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d (%d records, base %d): packed bytes differ\n got %x\nwant %x",
				i, records, len(prefix), got, want)
		}
		if distinctSuffixes(got[len(prefix):]) > compInline {
			spilled++
		}
	}
	if spilled < 50 || based < 500 {
		t.Errorf("weak coverage: %d messages past the inline array, %d at a non-zero base", spilled, based)
	}
}

// Past offset 0x3FFF a suffix can be neither recorded nor pointed at; both
// compressors must then emit the name in full, and still point at the
// suffixes recorded before the boundary.
func TestAppendPackBeyondPointerRange(t *testing.T) {
	m := NewQuery(1, "www.examp.le", TypeTXT).Reply()
	big := TXT{Strings: make([]string, 70)}
	for i := range big.Strings {
		big.Strings[i] = strings.Repeat("x", 250)
	}
	m.Answers = []RR{
		{Name: "www.examp.le", Type: TypeTXT, Class: ClassIN, Data: big}, // 17.5 KB: crosses 0x3FFF
		{Name: "late.foob.ar", Type: TypeNS, Class: ClassIN, Data: NS{Host: "ns.late.foob.ar"}},
		{Name: "late.foob.ar", Type: TypeNS, Class: ClassIN, Data: NS{Host: "ns.examp.le"}},
	}
	want, err := oracleAppendPack(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("packed bytes differ past the pointer range")
	}
	if n := bytes.Count(got, []byte("\x04late\x04foob\x02ar")); n != 3 {
		t.Errorf("late.foob.ar emitted in full %d times, want 3 (never recorded)", n)
	}
	back, err := Unpack(got)
	if err != nil {
		t.Fatal(err)
	}
	if h := back.Answers[2].Data.(NS).Host; h != "ns.examp.le" {
		t.Errorf("early suffix not reused: %q", h)
	}
}

// A released compressor must not pin the strings of the message it packed.
func TestCompressorReleaseClears(t *testing.T) {
	c := new(compressor)
	for i := 0; i < compInline+5; i++ {
		c.insert(fmt.Sprintf("n%d.examp.le", i), i)
	}
	if c.n != compInline || len(c.spill) != 5 {
		t.Fatalf("n=%d spill=%d, want %d and 5", c.n, len(c.spill), compInline)
	}
	c.release()
	if c.n != 0 || len(c.spill) != 0 || c.ents != [compInline]compEntry{} {
		t.Errorf("release left entries behind: n=%d spill=%d", c.n, len(c.spill))
	}
}

// oracleCanonicalName is CanonicalName as it was before it stopped copying:
// always builds the lowercased result in a fresh buffer.
func oracleCanonicalName(name string) (string, error) {
	if name == "" || name == "." {
		return ".", nil
	}
	name = strings.TrimSuffix(name, ".")
	b := make([]byte, len(name))
	wire := 1 // terminal zero octet
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			l := i - start
			if l == 0 {
				return "", ErrEmptyLabel
			}
			if l > maxLabelLen {
				return "", ErrLabelTooLong
			}
			wire += 1 + l
			start = i + 1
			if i < len(name) {
				b[i] = '.'
			}
			continue
		}
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9', c == '-', c == '_':
			b[i] = c
		case 'A' <= c && c <= 'Z':
			b[i] = c + ('a' - 'A')
		case c == '*' && i == 0 && (i+1 == len(name) || name[i+1] == '.'):
			b[i] = c
		default:
			return "", fmt.Errorf("%w: %q in %q", ErrBadLabelByte, c, name)
		}
	}
	if wire > maxNameLen {
		return "", ErrNameTooLong
	}
	return string(b), nil
}

// TestCanonicalFastPathMatchesSlow pins the no-copy CanonicalName to the
// copying one it replaced: same result or same error on every input, and
// an input that is its own canonical form comes back as the same string,
// not a copy. The second table pins the boundaries themselves.
func TestCanonicalFastPathMatchesSlow(t *testing.T) {
	l63 := strings.Repeat("a", 63)
	l64 := strings.Repeat("a", 64)
	n253 := strings.Join([]string{l63, l63, l63, strings.Repeat("b", 61)}, ".")
	n254 := strings.Join([]string{l63, l63, l63, strings.Repeat("b", 62)}, ".")
	inputs := []string{
		"examp.le", "www.examp.le", "a", "x-1.y_2.z", "Examp.LE", "WWW.examp.le", "examp.le.",
		"examp.le..", "*.examp.le", "*", "a.*.le", "*a.le", "a*.le", l63 + ".le", l64 + ".le",
		n253, n254, n253 + ".", strings.ToUpper(n253), "a..b", ".a", "..", "a b.le", "a/b", "é.le",
		"a\x00b", "1.2.3.4", "-", "_dmarc.examp.le",
	}
	for _, in := range inputs {
		got, err := CanonicalName(in)
		want, wantErr := oracleCanonicalName(in)
		if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("CanonicalName(%q) = %q, %v; the copying path gives %q, %v", in, got, err, want, wantErr)
		}
		if wantErr == nil && want == in && unsafe.StringData(got) != unsafe.StringData(in) {
			t.Errorf("CanonicalName(%q) copied a name that was already canonical", in)
		}
	}
	for _, c := range []struct {
		in   string
		want string
		err  error
	}{
		{n253, n253, nil}, {n254, "", ErrNameTooLong}, {l63 + ".le", l63 + ".le", nil},
		{l64 + ".le", "", ErrLabelTooLong}, {"a..b", "", ErrEmptyLabel}, {"a b.le", "", ErrBadLabelByte},
		{"*.examp.le", "*.examp.le", nil}, {"a.*.le", "", ErrBadLabelByte}, {"Examp.LE.", "examp.le", nil},
	} {
		got, err := CanonicalName(c.in)
		if got != c.want || !errors.Is(err, c.err) {
			t.Errorf("CanonicalName(%.20q…) = %.20q, %v; want %.20q, %v", c.in, got, err, c.want, c.err)
		}
	}
}
