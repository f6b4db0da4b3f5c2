package dnszone

import (
	"fmt"
	"net/netip"
	"testing"

	"dpsadopt/internal/dnswire"
)

// bigZone builds a TLD-shaped zone: n delegations with glue.
func bigZone(b *testing.B, n int) *Zone {
	b.Helper()
	z := MustNew("com")
	z.MustAdd(dnswire.RR{Name: "com", Type: dnswire.TypeSOA, TTL: 3600, Data: dnswire.SOA{
		MName: "a.gtld-servers.net", RName: "hostmaster.com", Serial: 1,
	}})
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dom%06d.com", i)
		host := fmt.Sprintf("ns1.dom%06d.com", i)
		z.MustAdd(dnswire.RR{Name: name, Type: dnswire.TypeNS, TTL: 3600, Data: dnswire.NS{Host: host}})
		z.MustAdd(dnswire.RR{Name: host, Type: dnswire.TypeA, TTL: 3600,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})}})
	}
	return z
}

func BenchmarkZoneReferral(b *testing.B) {
	z := bigZone(b, 50_000)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.LookupInto(&res, fmt.Sprintf("www.dom%06d.com", i%50_000), dnswire.TypeA)
		if !res.Delegated {
			b.Fatal("expected referral")
		}
	}
}

func BenchmarkZoneNXDomain(b *testing.B) {
	z := bigZone(b, 50_000)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.LookupInto(&res, "no-such-name.com", dnswire.TypeA)
		if res.RCode != dnswire.RCodeNXDomain {
			b.Fatal("expected NXDOMAIN")
		}
	}
}

func BenchmarkZoneAdd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z := MustNew("com")
		for j := 0; j < 1000; j++ {
			z.MustAdd(dnswire.RR{
				Name: fmt.Sprintf("dom%d.com", j), Type: dnswire.TypeNS, TTL: 1,
				Data: dnswire.NS{Host: "ns.example.net"},
			})
		}
	}
}
