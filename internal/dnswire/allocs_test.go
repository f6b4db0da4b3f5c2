//go:build !race

package dnswire

import (
	"net/netip"
	"testing"
)

// Allocation ceilings for one message each way (DESIGN.md "wire path
// allocation budget"). Not under -race: the race runtime drops sync.Pool
// items, so the pooled compressor would allocate every time.

// wireResponse is the shape wire mode sees most: one question, a CNAME and
// two A answers (bench/replay.go times the same message).
func wireResponse() *Message {
	m := NewQuery(7, "www.example-customer.com", TypeA).Reply()
	m.Answers = []RR{
		{Name: "www.example-customer.com", Type: TypeCNAME, Class: ClassIN, TTL: 300,
			Data: CNAME{Target: "example-customer.com.cdn.cloudflare.net"}},
		{Name: "example-customer.com.cdn.cloudflare.net", Type: TypeA, Class: ClassIN, TTL: 300,
			Data: A{Addr: netip.MustParseAddr("104.16.1.1")}},
		{Name: "example-customer.com.cdn.cloudflare.net", Type: TypeA, Class: ClassIN, TTL: 300,
			Data: A{Addr: netip.MustParseAddr("104.16.2.1")}},
	}
	return m
}

func TestAllocsAppendPack(t *testing.T) {
	buf := make([]byte, 0, 512)
	for _, c := range []struct {
		name string
		m    *Message
	}{
		{"query", NewQuery(9, "some-domain.com", TypeA)},
		{"response", wireResponse()},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := c.m.AppendPack(buf); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("AppendPack(%s) into a caller buffer: %v allocs, want 0", c.name, got)
		}
	}
}

func TestAllocsUnpack(t *testing.T) {
	wire, err := wireResponse().Pack()
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := Unpack(wire); err != nil {
			t.Fatal(err)
		}
	})
	// Message, two section slices, four owner names, the CNAME target and
	// three boxed RDATA values.
	if got > 12 {
		t.Errorf("Unpack(response): %v allocs, want <= 12", got)
	}
}

func TestAllocsCanonicalName(t *testing.T) {
	for _, name := range []string{"www.example-customer.com", "*.examp.le", "le"} {
		got := testing.AllocsPerRun(200, func() {
			if c, err := CanonicalName(name); err != nil || c != name {
				t.Fatalf("CanonicalName(%q) = %q, %v", name, c, err)
			}
		})
		if got != 0 {
			t.Errorf("CanonicalName(%q): %v allocs, want 0", name, got)
		}
	}
}
