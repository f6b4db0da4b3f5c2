package dnswire

import (
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func mustAddr(s string) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func sampleMessage() *Message {
	m := NewQuery(0x1234, "www.examp.le", TypeA)
	r := m.Reply()
	r.Flags.Authoritative = true
	r.Answers = []RR{
		{Name: "www.examp.le", Type: TypeCNAME, Class: ClassIN, TTL: 300, Data: CNAME{Target: "foob.ar"}},
		{Name: "foob.ar", Type: TypeA, Class: ClassIN, TTL: 60, Data: A{Addr: mustAddr("10.0.0.2")}},
	}
	r.Authority = []RR{
		{Name: "foob.ar", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: NS{Host: "ns.foob.ar"}},
	}
	r.Extra = []RR{
		{Name: "ns.foob.ar", Type: TypeA, Class: ClassIN, TTL: 3600, Data: A{Addr: mustAddr("10.0.0.53")}},
	}
	return r
}

func TestMessageRoundTrip(t *testing.T) {
	orig := sampleMessage()
	wire, err := orig.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Errorf("round trip mismatch:\norig: %+v\ngot:  %+v", orig, got)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(42, "name.com", TypeAAAA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Flags.Response || len(got.Questions) != 1 {
		t.Fatalf("bad query decode: %+v", got)
	}
	if got.Questions[0].Name != "name.com" || got.Questions[0].Type != TypeAAAA {
		t.Errorf("question = %v", got.Questions[0])
	}
	if !got.Flags.RecursionDesired {
		t.Error("RD not set")
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	m := sampleMessage()
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Pack the same message with compression defeated by using a fresh
	// comp map per name is not exposed; instead verify the packed form is
	// smaller than the sum of uncompressed name encodings by checking a
	// known bound: "foob.ar" appears 3 times as owner/target but should be
	// encoded in full at most once.
	count := strings.Count(string(packed), "\x04foob\x02ar")
	if count != 1 {
		t.Errorf("foob.ar encoded in full %d times, want 1", count)
	}
}

func TestRDataRoundTrips(t *testing.T) {
	rrs := []RR{
		{Name: "a.test", Type: TypeA, Class: ClassIN, TTL: 1, Data: A{Addr: mustAddr("192.0.2.1")}},
		{Name: "b.test", Type: TypeAAAA, Class: ClassIN, TTL: 1, Data: AAAA{Addr: mustAddr("2001:db8::1")}},
		{Name: "c.test", Type: TypeCNAME, Class: ClassIN, TTL: 1, Data: CNAME{Target: "target.test"}},
		{Name: "d.test", Type: TypeNS, Class: ClassIN, TTL: 1, Data: NS{Host: "ns1.test"}},
		{Name: "e.test", Type: TypePTR, Class: ClassIN, TTL: 1, Data: PTR{Target: "p.test"}},
		{Name: "f.test", Type: TypeMX, Class: ClassIN, TTL: 1, Data: MX{Preference: 10, Host: "mx.test"}},
		{Name: "g.test", Type: TypeTXT, Class: ClassIN, TTL: 1, Data: TXT{Strings: []string{"hello", "world"}}},
		{Name: "h.test", Type: TypeSOA, Class: ClassIN, TTL: 1, Data: SOA{
			MName: "ns1.test", RName: "hostmaster.test",
			Serial: 2016031500, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
		}},
		{Name: "i.test", Type: Type(99), Class: ClassIN, TTL: 1, Data: Raw{Bytes: []byte{1, 2, 3}}},
	}
	m := &Message{ID: 7, Answers: rrs}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Answers, got.Answers) {
		t.Errorf("answers mismatch:\nwant %v\ngot  %v", m.Answers, got.Answers)
	}
}

func TestUnpackRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 11),
		// Header claiming one question but no question bytes.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
	}
	for i, c := range cases {
		if _, err := Unpack(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestUnpackRejectsHugeCounts(t *testing.T) {
	hdr := make([]byte, 12)
	hdr[4], hdr[5] = 0xFF, 0xFF // QDCOUNT = 65535
	if _, err := Unpack(hdr); err == nil {
		t.Error("huge QDCOUNT accepted")
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		// Zero the Z bits (4..6) which Flags does not model.
		v &^= 0x0070
		return unpackFlags(v).pack() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeCNAME.String() != "CNAME" || Type(999).String() != "TYPE999" {
		t.Error("Type.String wrong")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" {
		t.Error("RCode.String wrong")
	}
	if ClassIN.String() != "IN" {
		t.Error("Class.String wrong")
	}
}

func TestAppendPackAtOffset(t *testing.T) {
	// A message appended after a 2-byte TCP length prefix must still
	// produce message-relative compression pointers.
	m := sampleMessage()
	buf := []byte{0xAA, 0xBB}
	buf, err := m.AppendPack(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(buf[2:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Error("offset pack round trip mismatch")
	}
}

func randomRR(r *rand.Rand) RR {
	name := randomName(r)
	switch r.Intn(5) {
	case 0:
		var b [4]byte
		r.Read(b[:])
		return RR{Name: name, Type: TypeA, Class: ClassIN, TTL: r.Uint32(), Data: A{Addr: netip.AddrFrom4(b)}}
	case 1:
		var b [16]byte
		r.Read(b[:])
		b[0] = 0x20 // keep it a real IPv6 address, not 4-in-6
		return RR{Name: name, Type: TypeAAAA, Class: ClassIN, TTL: r.Uint32(), Data: AAAA{Addr: netip.AddrFrom16(b)}}
	case 2:
		return RR{Name: name, Type: TypeCNAME, Class: ClassIN, TTL: r.Uint32(), Data: CNAME{Target: randomName(r)}}
	case 3:
		return RR{Name: name, Type: TypeNS, Class: ClassIN, TTL: r.Uint32(), Data: NS{Host: randomName(r)}}
	default:
		return RR{Name: name, Type: TypeTXT, Class: ClassIN, TTL: r.Uint32(), Data: TXT{Strings: []string{randomName(r)}}}
	}
}

func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Message{
			ID:    uint16(r.Uint32()),
			Flags: Flags{Response: true, Authoritative: r.Intn(2) == 0},
		}
		m.Questions = append(m.Questions, Question{Name: randomName(r), Type: TypeA, Class: ClassIN})
		for i, n := 0, r.Intn(6); i < n; i++ {
			m.Answers = append(m.Answers, randomRR(r))
		}
		for i, n := 0, r.Intn(3); i < n; i++ {
			m.Authority = append(m.Authority, randomRR(r))
		}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestUnpackNeverPanics throws random bytes at the decoder; it must return
// an error or a message, never panic or loop.
func TestUnpackNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Unpack(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestUnpackMutatedPack packs a valid message, flips random bytes, and
// checks the decoder stays well-behaved.
func TestUnpackMutatedPack(t *testing.T) {
	base, err := sampleMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		mut := append([]byte(nil), base...)
		for j, n := 0, 1+r.Intn(4); j < n; j++ {
			mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		}
		_, _ = Unpack(mut) // must not panic
	}
}

// corpusInput reads one committed seed of FuzzUnpack.
func corpusInput(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzUnpack", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		t.Fatalf("%s: not a one-value []byte corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// A header may claim 4096 records a section; Unpack sizes its sections by
// what the bytes present could hold, so the lie costs nothing.
func TestUnpackLyingCountsAllocateLittle(t *testing.T) {
	for _, name := range []string{"counts-4096-12-bytes", "counts-4096-40-bytes"} {
		data := corpusInput(t, name)
		// TotalAlloc is process-wide, so another goroutine's allocation
		// can land in a window; it can only add, so take the least of five.
		least := ^uint64(0)
		for try := 0; try < 5; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := Unpack(data)
			runtime.ReadMemStats(&after)
			if err != ErrTruncatedMessage && err != ErrTruncatedName {
				t.Fatalf("%s: Unpack = %v, %v; want a truncation error", name, m, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 1024 {
			t.Errorf("%s: Unpack allocated %d bytes for a %d-byte datagram, want < 1024", name, least, len(data))
		}
	}
}

func TestUnpackRejectsCorpusSeeds(t *testing.T) {
	for name, want := range map[string]error{
		"pointer-loop":    ErrPointerForward,
		"pointer-forward": ErrPointerForward,
		"name-256-octets": ErrNameTooLong,
	} {
		if _, err := Unpack(corpusInput(t, name)); err != want {
			t.Errorf("%s: Unpack error = %v, want %v", name, err, want)
		}
	}
}
