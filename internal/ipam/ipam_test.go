package ipam

import (
	"errors"
	"net/netip"
	"testing"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestNthAddr(t *testing.T) {
	a, err := NthAddr(pfx("10.0.0.0/24"), 0)
	if err != nil || a != netip.MustParseAddr("10.0.0.0") {
		t.Errorf("NthAddr 0 = %v, %v", a, err)
	}
	a, err = NthAddr(pfx("10.0.0.0/24"), 255)
	if err != nil || a != netip.MustParseAddr("10.0.0.255") {
		t.Errorf("NthAddr 255 = %v, %v", a, err)
	}
	if _, err = NthAddr(pfx("10.0.0.0/24"), 256); err == nil {
		t.Error("NthAddr out of range accepted")
	}
	a, err = NthAddr(pfx("10.0.0.0/16"), 256)
	if err != nil || a != netip.MustParseAddr("10.0.1.0") {
		t.Errorf("NthAddr /16 = %v, %v", a, err)
	}
	if _, err := NthAddr(netip.MustParsePrefix("2001:db8::/64"), 0); err == nil {
		t.Error("IPv6 accepted")
	}
}

func TestNthSubnet(t *testing.T) {
	p, err := NthSubnet(pfx("10.0.0.0/16"), 24, 3)
	if err != nil || p != pfx("10.0.3.0/24") {
		t.Errorf("NthSubnet = %v, %v", p, err)
	}
	if _, err := NthSubnet(pfx("10.0.0.0/16"), 24, 256); err == nil {
		t.Error("out-of-range subnet accepted")
	}
	if _, err := NthSubnet(pfx("10.0.0.0/16"), 8, 0); err == nil {
		t.Error("supernet carve accepted")
	}
}

func TestPoolAlloc(t *testing.T) {
	p := MustPool("192.0.2.0/30")
	want := []string{"192.0.2.0", "192.0.2.1", "192.0.2.2", "192.0.2.3"}
	for i, w := range want {
		a, err := p.AllocSubnet(32)
		if err != nil || a.Addr().String() != w {
			t.Errorf("alloc %d = %v, %v; want %s/32", i, a, err, w)
		}
	}
	if _, err := p.AllocSubnet(32); !errors.Is(err, ErrExhausted) {
		t.Errorf("alloc past exhaustion: err = %v, want ErrExhausted", err)
	}
}

func TestPoolAllocSubnet(t *testing.T) {
	p := MustPool("10.0.0.0/16")
	// One host alloc, then a /24: the /24 must be aligned past the host.
	if _, err := p.AllocSubnet(32); err != nil {
		t.Fatal(err)
	}
	sub, err := p.AllocSubnet(24)
	if err != nil || sub != pfx("10.0.1.0/24") {
		t.Errorf("AllocSubnet = %v, %v", sub, err)
	}
	sub2, err := p.AllocSubnet(24)
	if err != nil || sub2 != pfx("10.0.2.0/24") {
		t.Errorf("second AllocSubnet = %v, %v", sub2, err)
	}
	a, err := p.AllocSubnet(32)
	if err != nil || a != pfx("10.0.3.0/32") {
		t.Errorf("host after subnets = %v, %v", a, err)
	}
}

func TestPoolDeterministic(t *testing.T) {
	p1, p2 := MustPool("10.1.0.0/24"), MustPool("10.1.0.0/24")
	for i := 0; i < 10; i++ {
		a1, _ := p1.AllocSubnet(32)
		a2, _ := p2.AllocSubnet(32)
		if a1 != a2 {
			t.Fatalf("allocation %d diverged: %v vs %v", i, a1, a2)
		}
	}
}

func TestMaskBitsFor(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{{1, 32}, {2, 31}, {3, 30}, {4, 30}, {5, 29}, {256, 24}, {257, 23}, {1 << 16, 16}}
	for _, c := range cases {
		if got := MaskBitsFor(c.n); got != c.want {
			t.Errorf("MaskBitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestNth6Addr(t *testing.T) {
	p := netip.MustParsePrefix("2001:db8:1::/48")
	a, err := Nth6Addr(p, 0)
	if err != nil || a != netip.MustParseAddr("2001:db8:1::") {
		t.Errorf("Nth6Addr 0 = %v, %v", a, err)
	}
	a, err = Nth6Addr(p, 257)
	if err != nil || a != netip.MustParseAddr("2001:db8:1::101") {
		t.Errorf("Nth6Addr 257 = %v, %v", a, err)
	}
	if _, err := Nth6Addr(netip.MustParsePrefix("10.0.0.0/8"), 0); err == nil {
		t.Error("IPv4 accepted")
	}
	if _, err := Nth6Addr(netip.MustParsePrefix("2001:db8::/96"), 0); err == nil {
		t.Error("/96 accepted")
	}
}

func TestPool6AllocSubnet(t *testing.T) {
	p := MustPool6("2001:db8::/32")
	s1, err := p.AllocSubnet(48)
	if err != nil || s1 != netip.MustParsePrefix("2001:db8::/48") {
		t.Errorf("s1 = %v, %v", s1, err)
	}
	s2, err := p.AllocSubnet(48)
	if err != nil || s2 != netip.MustParsePrefix("2001:db8:1::/48") {
		t.Errorf("s2 = %v, %v", s2, err)
	}
	if _, err := p.AllocSubnet(32); err == nil {
		t.Error("supernet carve accepted")
	}
	if _, err := p.AllocSubnet(96); err == nil {
		t.Error("/96 accepted")
	}
}
