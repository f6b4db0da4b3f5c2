package dnsclient

import (
	"context"
	"net/netip"
	"testing"

	"dpsadopt/internal/dnsserver"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/dnszone"
	"dpsadopt/internal/transport"
)

// newOneZoneWorld serves examp.le from a single authoritative server that
// doubles as the resolver's root, so a resolution is exactly one
// query/response exchange over Mem.
func newOneZoneWorld(t testing.TB) *testWorld {
	t.Helper()
	w := &testWorld{net: transport.NewMem(99)}
	z := dnszone.MustNew("examp.le")
	z.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.10")}})
	srv := dnsserver.New()
	srv.AddZone(z)
	run, err := dnsserver.Start(srv, w.net, "10.0.0.100")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { run.Stop() })
	w.roots = []netip.AddrPort{netip.MustParseAddrPort("10.0.0.100:53")}
	return w
}

// BenchmarkExchangeMem measures one query/response exchange over Mem
// against a one-zone server: ns/op is the round trip, B/op and allocs/op
// cover client and server together.
func BenchmarkExchangeMem(b *testing.B) {
	w := newOneZoneWorld(b)
	r := w.resolver(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Resolve(ctx, "examp.le", dnswire.TypeA)
		if err != nil || res.Queries != 1 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkResolveCached measures resolution with a warm referral cache
// (the steady state of a TLD sweep: one query per lookup).
func BenchmarkResolveCached(b *testing.B) {
	w := newTestWorld(b)
	r, err := NewResolver(w.net, netip.MustParseAddr("10.9.0.9"), w.roots, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Resolve(context.Background(), "examp.le", dnswire.TypeA); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Resolve(context.Background(), "examp.le", dnswire.TypeA)
		if err != nil || len(addrs(res)) != 1 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkResolveColdChain measures a full cold walk with a cross-zone
// CNAME: root referral, two TLD referrals, glueless NS resolution, and
// the chase into the DPS zone.
func BenchmarkResolveColdChain(b *testing.B) {
	w := newTestWorld(b)
	r, err := NewResolver(w.net, netip.MustParseAddr("10.9.0.9"), w.roots, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.cache = make(map[string][]netip.AddrPort)
		res, err := r.Resolve(context.Background(), "www.examp.le", dnswire.TypeA)
		if err != nil || len(addrs(res)) != 1 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}
