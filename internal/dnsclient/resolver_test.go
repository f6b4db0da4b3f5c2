package dnsclient

import (
	"context"
	"net/netip"
	"testing"

	"dpsadopt/internal/chaos"
	"dpsadopt/internal/dnsserver"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/dnszone"
	"dpsadopt/internal/transport"
)

// addrs is the final A/AAAA addresses of a resolution's expansion.
func addrs(r *Result) []netip.Addr {
	var out []netip.Addr
	for _, rr := range r.Records {
		switch d := rr.Data.(type) {
		case dnswire.A:
			out = append(out, d.Addr)
		case dnswire.AAAA:
			out = append(out, d.Addr)
		}
	}
	return out
}

// testWorld wires a miniature DNS hierarchy modelled on the paper's
// Section 2 examples:
//
//	root (.)            at 10.0.0.100
//	"le" and "ar" TLDs  at 10.0.1.1
//	examp.le            at 10.0.2.1 (customer zone, www CNAME → foob.ar)
//	foob.ar             at 10.0.3.1 (the DPS zone)
type testWorld struct {
	net   transport.Network
	roots []netip.AddrPort
	stops []*dnsserver.Running
}

func newTestWorld(t testing.TB) *testWorld {
	t.Helper()
	return newTestWorldOn(t, transport.NewMem(99))
}

// newTestWorldOn is newTestWorld on the given network.
func newTestWorldOn(t testing.TB, network transport.Network) *testWorld {
	t.Helper()
	w := &testWorld{net: network}

	root := dnszone.MustNew(".")
	root.MustAdd(dnswire.RR{Name: "le", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.tld.test"}})
	root.MustAdd(dnswire.RR{Name: "ar", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.tld.test"}})
	root.MustAdd(dnswire.RR{Name: "test", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.tld.test"}})
	root.MustAdd(dnswire.RR{Name: "ns.tld.test", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("10.0.1.1")}})

	tld := dnsserver.New()
	le := dnszone.MustNew("le")
	le.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.registr.ar"}})
	// Glueless: ns.registr.ar must be resolved via the "ar" TLD.
	tld.AddZone(le)
	ar := dnszone.MustNew("ar")
	ar.MustAdd(dnswire.RR{Name: "registr.ar", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.self.registr.ar"}})
	ar.MustAdd(dnswire.RR{Name: "ns.self.registr.ar", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("10.0.2.1")}})
	ar.MustAdd(dnswire.RR{Name: "foob.ar", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.foob.ar"}})
	ar.MustAdd(dnswire.RR{Name: "ns.foob.ar", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("10.0.3.1")}})
	tld.AddZone(ar)
	testTLD := dnszone.MustNew("test")
	testTLD.MustAdd(dnswire.RR{Name: "ns.tld.test", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("10.0.1.1")}})
	tld.AddZone(testTLD)

	registrar := dnsserver.New()
	reg := dnszone.MustNew("registr.ar")
	reg.MustAdd(dnswire.RR{Name: "ns.registr.ar", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("10.0.2.1")}})
	registrar.AddZone(reg)
	examp := dnszone.MustNew("examp.le")
	examp.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeSOA, TTL: 1, Data: dnswire.SOA{MName: "ns.registr.ar", RName: "h.examp.le", Serial: 1}})
	examp.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.registr.ar"}})
	examp.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.10")}})
	examp.MustAdd(dnswire.RR{Name: "www.examp.le", Type: dnswire.TypeCNAME, TTL: 1, Data: dnswire.CNAME{Target: "foob.ar"}})
	registrar.AddZone(examp)

	dps := dnsserver.New()
	foob := dnszone.MustNew("foob.ar")
	foob.MustAdd(dnswire.RR{Name: "foob.ar", Type: dnswire.TypeSOA, TTL: 1, Data: dnswire.SOA{MName: "ns.foob.ar", RName: "h.foob.ar", Serial: 1}})
	foob.MustAdd(dnswire.RR{Name: "foob.ar", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.foob.ar"}})
	foob.MustAdd(dnswire.RR{Name: "foob.ar", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("10.0.3.100")}})
	dps.AddZone(foob)

	rootSrv := dnsserver.New()
	rootSrv.AddZone(root)

	for _, s := range []struct {
		srv  *dnsserver.Server
		addr string
	}{
		{rootSrv, "10.0.0.100"},
		{tld, "10.0.1.1"},
		{registrar, "10.0.2.1"},
		{dps, "10.0.3.1"},
	} {
		run, err := dnsserver.Start(s.srv, w.net, s.addr)
		if err != nil {
			t.Fatal(err)
		}
		w.stops = append(w.stops, run)
	}
	t.Cleanup(func() {
		for _, r := range w.stops {
			_ = r.Stop()
		}
	})
	w.roots = []netip.AddrPort{netip.MustParseAddrPort("10.0.0.100:53")}
	return w
}

func (w *testWorld) resolver(t testing.TB) *Resolver {
	t.Helper()
	r, err := NewResolver(w.net, netip.MustParseAddr("10.9.0.1"), w.roots, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestResolveApexA(t *testing.T) {
	w := newTestWorld(t)
	r := w.resolver(t)
	res, err := r.Resolve(context.Background(), "examp.le", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %v", res.RCode)
	}
	addrs := addrs(res)
	if len(addrs) != 1 || addrs[0] != netip.MustParseAddr("192.0.2.10") {
		t.Errorf("addrs = %v", addrs)
	}
}

func TestResolveCNAMEAcrossZones(t *testing.T) {
	w := newTestWorld(t)
	r := w.resolver(t)
	res, err := r.Resolve(context.Background(), "www.examp.le", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 || res.Records[0].Data != (dnswire.CNAME{Target: "foob.ar"}) {
		t.Fatalf("records = %v, want the CNAME to foob.ar first", res.Records)
	}
	addrs := addrs(res)
	if len(addrs) != 1 || addrs[0] != netip.MustParseAddr("10.0.3.100") {
		t.Errorf("addrs = %v", addrs)
	}
	// Full expansion: CNAME then A, in order.
	if len(res.Records) != 2 || res.Records[0].Type != dnswire.TypeCNAME || res.Records[1].Type != dnswire.TypeA {
		t.Errorf("records = %v", res.Records)
	}
}

func TestResolveGluelessNS(t *testing.T) {
	// examp.le's NS (ns.registr.ar) has no glue in the "le" zone; the
	// resolver must resolve it through the "ar" TLD first.
	w := newTestWorld(t)
	r := w.resolver(t)
	res, err := r.Resolve(context.Background(), "examp.le", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs(res)) != 1 {
		t.Errorf("addrs = %v", addrs(res))
	}
}

func TestResolveNXDomain(t *testing.T) {
	w := newTestWorld(t)
	r := w.resolver(t)
	res, err := r.Resolve(context.Background(), "missing.examp.le", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", res.RCode)
	}
}

func TestResolveNoData(t *testing.T) {
	w := newTestWorld(t)
	r := w.resolver(t)
	res, err := r.Resolve(context.Background(), "examp.le", dnswire.TypeAAAA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNoError || len(res.Records) != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestResolveNSRecords(t *testing.T) {
	w := newTestWorld(t)
	r := w.resolver(t)
	res, err := r.Resolve(context.Background(), "examp.le", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("records = %v", res.Records)
	}
	if ns, ok := res.Records[0].Data.(dnswire.NS); !ok || ns.Host != "ns.registr.ar" {
		t.Errorf("NS = %v", res.Records[0])
	}
}

func TestReferralCacheReused(t *testing.T) {
	w := newTestWorld(t)
	r := w.resolver(t)
	if _, err := r.Resolve(context.Background(), "examp.le", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	first := r.QueriesSent()
	if _, err := r.Resolve(context.Background(), "examp.le", dnswire.TypeNS); err != nil {
		t.Fatal(err)
	}
	second := r.QueriesSent() - first
	if second != 1 {
		t.Errorf("second resolution used %d queries, want 1 (cache)", second)
	}
	r.cache = make(map[string][]netip.AddrPort)
	if _, err := r.Resolve(context.Background(), "examp.le", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	third := r.QueriesSent() - first - second
	if third <= 1 {
		t.Errorf("post-flush resolution used %d queries, expected full walk", third)
	}
}

func TestResolveSurvivesLoss(t *testing.T) {
	w := newTestWorldOn(t, chaos.Wrap(transport.NewMem(99), chaos.Config{Name: "lossy", Loss: 0.2}, 99))
	r := w.resolver(t)
	r.Retries = 6
	r.Timeout = 25e6 // 25ms: the in-memory network delivers instantly
	ok := 0
	for i := 0; i < 10; i++ {
		r.cache = make(map[string][]netip.AddrPort)
		res, err := r.Resolve(context.Background(), "www.examp.le", dnswire.TypeA)
		if err == nil && len(addrs(res)) == 1 {
			ok++
		}
	}
	if ok < 8 {
		t.Errorf("only %d/10 resolutions succeeded under 20%% loss", ok)
	}
}

func TestResolveDeadServer(t *testing.T) {
	net := transport.NewMem(1)
	r, err := NewResolver(net, netip.MustParseAddr("10.9.0.1"), []netip.AddrPort{netip.MustParseAddrPort("10.0.0.200:53")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Timeout = 20e6 // 20ms
	r.Retries = 1
	if _, err := r.Resolve(context.Background(), "anything.test", dnswire.TypeA); err == nil {
		t.Error("expected error from dead root")
	}
}

func TestCNAMELoopAcrossZonesBounded(t *testing.T) {
	net := transport.NewMem(1)
	srv := dnsserver.New()
	root := dnszone.MustNew(".")
	root.MustAdd(dnswire.RR{Name: "test", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.test"}})
	root.MustAdd(dnswire.RR{Name: "ns.test", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("10.0.0.1")}})
	srvRoot := dnsserver.New()
	srvRoot.AddZone(root)
	a := dnszone.MustNew("a.test")
	a.MustAdd(dnswire.RR{Name: "a.test", Type: dnswire.TypeCNAME, TTL: 1, Data: dnswire.CNAME{Target: "b.test"}})
	b := dnszone.MustNew("b.test")
	b.MustAdd(dnswire.RR{Name: "b.test", Type: dnswire.TypeCNAME, TTL: 1, Data: dnswire.CNAME{Target: "a.test"}})
	tz := dnszone.MustNew("test")
	srv.AddZone(a)
	srv.AddZone(b)
	srv.AddZone(tz)
	r1, err := dnsserver.Start(srvRoot, net, "10.0.0.100")
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Stop()
	r2, err := dnsserver.Start(srv, net, "10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Stop()
	res, err := NewResolver(net, netip.MustParseAddr("10.9.0.1"), []netip.AddrPort{netip.MustParseAddrPort("10.0.0.100:53")}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out, err := res.Resolve(context.Background(), "a.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Records) == 0 || out.Records[0].Type != dnswire.TypeCNAME {
		t.Error("expected partial CNAME chain")
	}
	if len(out.Records) > 2*(maxCNAMEHops+1) {
		t.Errorf("unbounded chain: %d records", len(out.Records))
	}
}
