package dnswire

import (
	"testing"
)

// Ablation: name compression on vs off for a referral-shaped response
// (DESIGN.md §5) — compression costs a suffix search per name but shrinks
// referrals, which dominate the measurement traffic.

func benchMessage() *Message {
	m := NewQuery(1, "www.examp.le", TypeA).Reply()
	m.Flags.Authoritative = true
	m.Answers = []RR{
		{Name: "www.examp.le", Type: TypeCNAME, Class: ClassIN, TTL: 300, Data: CNAME{Target: "www-examp-le.cdn.foob.ar"}},
		{Name: "www-examp-le.cdn.foob.ar", Type: TypeA, Class: ClassIN, TTL: 60, Data: A{Addr: mustAddr("10.0.0.2")}},
	}
	m.Authority = []RR{
		{Name: "foob.ar", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: NS{Host: "ns1.foob.ar"}},
		{Name: "foob.ar", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: NS{Host: "ns2.foob.ar"}},
	}
	m.Extra = []RR{
		{Name: "ns1.foob.ar", Type: TypeA, Class: ClassIN, TTL: 3600, Data: A{Addr: mustAddr("10.0.0.53")}},
		{Name: "ns2.foob.ar", Type: TypeA, Class: ClassIN, TTL: 3600, Data: A{Addr: mustAddr("10.0.0.54")}},
	}
	return m
}

func BenchmarkAblationNameCompressionOn(b *testing.B) {
	m := benchMessage()
	wire, err := m.Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

// packUncompressed encodes the message with compression disabled: a nil
// compressor emits every name in full.
func packUncompressed(m *Message) ([]byte, error) {
	return m.appendPack(nil, nil)
}

func BenchmarkAblationNameCompressionOff(b *testing.B) {
	m := benchMessage()
	wire, err := packUncompressed(m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packUncompressed(m); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUncompressedLargerButDecodable(t *testing.T) {
	m := benchMessage()
	comp, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := packUncompressed(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) <= len(comp) {
		t.Errorf("compression ineffective: %d vs %d bytes", len(comp), len(flat))
	}
	got, err := Unpack(flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 2 || len(got.Extra) != 2 {
		t.Errorf("uncompressed decode mismatch: %+v", got)
	}
}

func BenchmarkUnpack(b *testing.B) {
	wire, err := benchMessage().Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackQuery(b *testing.B) {
	q := NewQuery(9, "some-domain.com", TypeA)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}
