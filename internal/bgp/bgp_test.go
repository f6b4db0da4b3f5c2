package bgp

import (
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dpsadopt/internal/pfx2as"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

// origins looks a up in the RIB's snapshot the way the measurement does:
// the pfx2as text, parsed and searched for the most specific prefix.
func origins(t *testing.T, rib *RIB, a netip.Addr) ([]ASN, bool) {
	t.Helper()
	tbl, err := pfx2as.FromSnapshot(rib.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	o, ok := tbl.Lookup(a)
	var out []ASN
	for _, asn := range o {
		out = append(out, ASN(asn))
	}
	return out, ok
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register(13335, "CLOUDFLARENET - CloudFlare, Inc.")
	r.Register(19551, "INCAPSULA - Incapsula Inc")
	r.Register(20940, "AKAMAI-ASN1")
	r.Register(16625, "AKAMAI-AS")
	if got := r.FindByName("akamai"); !reflect.DeepEqual(got, []ASN{16625, 20940}) {
		t.Errorf("FindByName = %v", got)
	}
	if got := r.FindByName("nonexistent"); got != nil {
		t.Errorf("FindByName(miss) = %v", got)
	}
	if ASN(13335).String() != "AS13335" {
		t.Error("ASN.String wrong")
	}
}

func TestRIBMostSpecific(t *testing.T) {
	rib := NewRIB()
	rib.Announce(pfx("10.0.0.0/8"), 100)
	rib.Announce(pfx("10.1.0.0/16"), 200)
	rib.Announce(pfx("10.1.2.0/24"), 300)

	cases := []struct {
		addr string
		want ASN
	}{
		{"10.1.2.3", 300},
		{"10.1.9.9", 200},
		{"10.200.0.1", 100},
	}
	for _, c := range cases {
		got, ok := origins(t, rib, addr(c.addr))
		if !ok || len(got) != 1 || got[0] != c.want {
			t.Errorf("origins(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
	if _, ok := origins(t, rib, addr("192.168.0.1")); ok {
		t.Error("uncovered address resolved")
	}
}

func TestRIBMOAS(t *testing.T) {
	rib := NewRIB()
	rib.Announce(pfx("203.0.113.0/24"), 19551)
	rib.Announce(pfx("203.0.113.0/24"), 55002)
	got, ok := origins(t, rib, addr("203.0.113.7"))
	if !ok || !reflect.DeepEqual(got, []ASN{19551, 55002}) {
		t.Errorf("MOAS origins = %v", got)
	}
}

func TestRIBOnDemandFlip(t *testing.T) {
	// The BGP-based on-demand diversion of §2.3/§3.4, as the world
	// builds it: each day's RIB is announced afresh, and the customer's
	// /24 is originated by the DPS on attack days and by the customer
	// otherwise, under the hoster's covering route.
	customer, dps, hoster := ASN(21740), ASN(26415), ASN(64500) // ENOM, Verisign per §4.4.1
	a := addr("198.51.100.10")
	for _, day := range []struct {
		name   string
		origin ASN
	}{{"baseline", customer}, {"attack", dps}, {"restored", customer}} {
		rib := NewRIB()
		rib.Announce(pfx("198.51.0.0/16"), hoster)
		rib.Announce(pfx("198.51.100.0/24"), day.origin)
		if got, ok := origins(t, rib, a); !ok || !reflect.DeepEqual(got, []ASN{day.origin}) {
			t.Errorf("%s: origins = %v, want %v", day.name, got, day.origin)
		}
	}
}

func TestRIBIPv6(t *testing.T) {
	rib := NewRIB()
	rib.Announce(pfx("2001:db8::/32"), 64500)
	rib.Announce(pfx("2001:db8:1::/48"), 64501)
	got, ok := origins(t, rib, addr("2001:db8:1::5"))
	if !ok || got[0] != 64501 {
		t.Errorf("v6 most-specific = %v", got)
	}
	got, ok = origins(t, rib, addr("2001:db8:2::5"))
	if !ok || got[0] != 64500 {
		t.Errorf("v6 covering = %v", got)
	}
}

func TestSnapshotFormat(t *testing.T) {
	rib := NewRIB()
	rib.Announce(pfx("10.1.2.0/24"), 300)
	rib.Announce(pfx("10.0.0.0/8"), 100)
	rib.Announce(pfx("10.0.0.0/8"), 101)
	snap := rib.Snapshot()
	want1 := "10.0.0.0\t8\t100_101\n"
	want2 := "10.1.2.0\t24\t300\n"
	if !strings.Contains(snap, want1) || !strings.Contains(snap, want2) {
		t.Errorf("snapshot:\n%s", snap)
	}
	if len(rib.Routes()) != 2 {
		t.Errorf("Routes = %v", rib.Routes())
	}
}

// TestRIBMatchesBruteForce cross-checks the snapshot lookup against a
// brute-force most-specific scan over Routes(), on random RIBs.
func TestRIBMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rib := NewRIB()
		for i, n := 0, 20+r.Intn(40); i < n; i++ {
			bits := 8 + r.Intn(17)
			a := netip.AddrFrom4([4]byte{byte(r.Intn(16)), byte(r.Intn(256)), byte(r.Intn(256)), 0})
			rib.Announce(netip.PrefixFrom(a, bits).Masked(), ASN(1+r.Intn(500)))
		}
		routes := rib.Routes()
		for i := 0; i < 100; i++ {
			a := netip.AddrFrom4([4]byte{byte(r.Intn(16)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
			got, ok := origins(t, rib, a)
			// Brute force.
			best := -1
			var want []ASN
			for _, rt := range routes {
				if rt.Prefix.Contains(a) && rt.Prefix.Bits() > best {
					best = rt.Prefix.Bits()
					want = rt.Origins
				}
			}
			if ok != (best >= 0) {
				t.Logf("seed %d addr %v: ok=%v want=%v", seed, a, ok, best >= 0)
				return false
			}
			if !ok {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d addr %v: got %v want %v", seed, a, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
