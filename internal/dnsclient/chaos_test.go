package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"dpsadopt/internal/chaos"
	"dpsadopt/internal/dnsserver"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/dnszone"
	"dpsadopt/internal/transport"
)

// nsWorld builds a root delegating "f.test" to nsCount name servers (with
// glue), each its own Server instance so tests can count per-server query
// load. Servers whose index is in dead are not started: datagrams to them
// vanish, like a dead host. The zone holds names x0.f.test .. x29.f.test.
func nsWorld(t *testing.T, network transport.Network, nsCount int, dead map[int]bool) (roots []netip.AddrPort, nsAddrs []netip.AddrPort, srvs []*dnsserver.Server) {
	t.Helper()
	z := dnszone.MustNew("f.test")
	z.MustAdd(dnswire.RR{Name: "f.test", Type: dnswire.TypeSOA, TTL: 1, Data: dnswire.SOA{MName: "ns0.f.test", RName: "h.f.test", Serial: 1}})
	root := dnszone.MustNew(".")
	for i := 0; i < nsCount; i++ {
		host := fmt.Sprintf("ns%d.f.test", i)
		addr := netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		z.MustAdd(dnswire.RR{Name: "f.test", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: host}})
		root.MustAdd(dnswire.RR{Name: "f.test", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: host}})
		root.MustAdd(dnswire.RR{Name: host, Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: addr}})
		nsAddrs = append(nsAddrs, netip.AddrPortFrom(addr, transport.DNSPort))
	}
	for i := 0; i < 30; i++ {
		z.MustAdd(dnswire.RR{Name: fmt.Sprintf("x%d.f.test", i), Type: dnswire.TypeA, TTL: 1,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 1, 0, byte(i)})}})
	}
	rootSrv := dnsserver.New()
	rootSrv.AddZone(root)
	run, err := dnsserver.Start(rootSrv, network, "10.0.0.100")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { run.Stop() })
	srvs = append(srvs, rootSrv)
	for i := 0; i < nsCount; i++ {
		srv := dnsserver.New()
		srv.AddZone(z)
		srvs = append(srvs, srv)
		if dead[i] {
			continue
		}
		run, err := dnsserver.Start(srv, network, nsAddrs[i].Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { run.Stop() })
	}
	return []netip.AddrPort{netip.MustParseAddrPort("10.0.0.100:53")}, nsAddrs, srvs
}

// TestTCPFallbackUnderTruncStorm proves the RFC 1035 §4.2.2 retry path
// survives chaos: every UDP answer is forcibly truncated and 5% of
// datagrams are lost, so resolution only completes if the TCP fallback
// works end to end.
func TestTCPFallbackUnderTruncStorm(t *testing.T) {
	cfg, err := chaos.Scenario("trunc-storm")
	if err != nil {
		t.Fatal(err)
	}
	network := chaos.Wrap(transport.NewMem(41), cfg, 7)
	roots, records := bigWorld(t, network)
	// Server-side forced truncation on the authoritative servers: the
	// network wrapper supplies the datagram loss.
	// (bigWorld's servers are reached via the stream listeners it starts.)
	r, err := NewResolver(network, netip.MustParseAddr("10.9.0.10"), roots, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Backoff = time.Millisecond // keep retransmission sleeps test-fast
	res, err := r.Resolve(context.Background(), "many.big.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(addrs(res)); got != records {
		t.Errorf("addresses = %d, want %d (TCP fallback should deliver all)", got, records)
	}
}

// TestTCPFallbackUnderServerTruncation drives truncation from the server
// side (FaultTruncate via the injector) rather than by answer size, with
// loss on top, against the multi-NS world.
func TestTCPFallbackUnderServerTruncation(t *testing.T) {
	cfg := chaos.Config{Name: "trunc", Loss: 0.05, Truncate: 1}
	network := chaos.Wrap(transport.NewMem(42), cfg, 9)
	roots, nsAddrs, srvs := nsWorld(t, network, 2, nil)
	inj := chaos.NewServerFaults(cfg, 9)
	for _, srv := range srvs {
		srv.SetFaults(inj)
	}
	// Streams for the TCP retry: the injector only affects UDP.
	for i, srv := range srvs {
		addr := "10.0.0.100"
		if i > 0 {
			addr = nsAddrs[i-1].Addr().String()
		}
		stream, err := dnsserver.StartStream(srv, network, addr)
		if err != nil {
			t.Fatal(err)
		}
		if stream != nil {
			t.Cleanup(func() { stream.Stop() })
		}
	}
	r, err := NewResolver(network, netip.MustParseAddr("10.9.0.11"), roots, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Backoff = time.Millisecond
	res, err := r.Resolve(context.Background(), "x3.f.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs(res)) != 1 {
		t.Errorf("addrs = %v, want one", addrs(res))
	}
}

// queryCount is a fault injector that orders fault (none, unset) for
// every query and counts the queries a server is asked.
type queryCount struct {
	atomic.Int64
	fault dnsserver.Fault
}

func (c *queryCount) QueryFault(netip.AddrPort, string) (dnsserver.Fault, time.Duration) {
	c.Add(1)
	return c.fault, 0
}

// TestServfailTriesNextServer: a server answering SERVFAIL cannot answer,
// so the resolver asks the next server of the set at once — no timeout,
// no retransmission — and a name no server can answer is a lost data
// point: Resolve fails with ErrRCode and counts a give-up.
func TestServfailTriesNextServer(t *testing.T) {
	network := transport.NewMem(47)
	roots, _, srvs := nsWorld(t, network, 2, nil)
	counts := []*queryCount{{}, {fault: dnsserver.FaultServfail}, {}}
	for i, srv := range srvs {
		srv.SetFaults(counts[i])
	}
	r, err := NewResolver(network, netip.MustParseAddr("10.9.0.16"), roots, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const n = 6
	for i := 0; i < n; i++ {
		res, err := r.Resolve(context.Background(), fmt.Sprintf("x%d.f.test", i), dnswire.TypeA)
		if err != nil {
			t.Fatalf("x%d: %v", i, err)
		}
		if res.RCode != dnswire.RCodeNoError || len(addrs(res)) != 1 {
			t.Fatalf("x%d: rcode %v, addrs %v", i, res.RCode, addrs(res))
		}
	}
	if counts[1].Load() == 0 {
		t.Error("ns0 was never asked: rotation did not reach the failing server")
	}
	if r.TimeoutsSeen() != 0 || r.GiveUps() != 0 {
		t.Errorf("timeouts = %d, giveups = %d, want 0 and 0", r.TimeoutsSeen(), r.GiveUps())
	}

	counts[2].fault = dnsserver.FaultServfail
	res, err := r.Resolve(context.Background(), "x7.f.test", dnswire.TypeA)
	if !errors.Is(err, ErrRCode) {
		t.Fatalf("err = %v, want ErrRCode", err)
	}
	if res.Queries != 2 || res.Timeouts != 0 {
		t.Errorf("queries = %d, timeouts = %d, want 2 (one per server) and 0", res.Queries, res.Timeouts)
	}
	if r.GiveUps() != 1 || r.Resolutions() != n+1 {
		t.Errorf("giveups = %d, resolutions = %d, want 1 and %d", r.GiveUps(), r.Resolutions(), n+1)
	}
}

// TestServfailAfterTimeoutSpendsNoRetry: a timeout spends a retry, but
// the move past a SERVFAIL that follows it does not. With one server
// dropping queries, one answering SERVFAIL and one answering, and a
// budget of one retry, every resolution succeeds; each fault assignment
// is tried so one of them meets the order drop, SERVFAIL, answer.
func TestServfailAfterTimeoutSpendsNoRetry(t *testing.T) {
	faults := []dnsserver.Fault{dnsserver.FaultDrop, dnsserver.FaultServfail, dnsserver.FaultNone}
	met := false
	for shift := 0; shift < len(faults); shift++ {
		network := transport.NewMem(int64(48 + shift))
		roots, _, srvs := nsWorld(t, network, len(faults), nil)
		counts := make([]*queryCount, len(faults))
		for i := range faults {
			counts[i] = &queryCount{fault: faults[(i+shift)%len(faults)]}
			srvs[i+1].SetFaults(counts[i])
		}
		r, err := NewResolver(network, netip.MustParseAddr("10.9.0.17"), roots, 7)
		if err != nil {
			t.Fatal(err)
		}
		r.Timeout = 5 * time.Millisecond
		r.Backoff = time.Millisecond
		r.RetryBudget = 1
		res, err := r.Resolve(context.Background(), "x3.f.test", dnswire.TypeA)
		r.Close()
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		if len(addrs(res)) != 1 {
			t.Fatalf("shift %d: addrs %v", shift, addrs(res))
		}
		// The root answered once; three NS queries mean the drop and
		// the SERVFAIL server were both asked before the answering one.
		if res.Queries == 4 && res.Timeouts == 1 {
			met = true
		}
	}
	if !met {
		t.Error("no fault assignment met the order drop, SERVFAIL, answer")
	}
}

// TestRotationSpreadsLoad checks retry fairness: with three healthy name
// servers, successive resolutions must not all land on the first NS —
// the starting server rotates per resolution.
func TestRotationSpreadsLoad(t *testing.T) {
	network := transport.NewMem(43)
	roots, _, srvs := nsWorld(t, network, 3, nil)
	counts := make([]queryCount, len(srvs))
	for i, srv := range srvs {
		srv.SetFaults(&counts[i])
	}
	r, err := NewResolver(network, netip.MustParseAddr("10.9.0.12"), roots, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := r.Resolve(context.Background(), fmt.Sprintf("x%d.f.test", i), dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for i := range srvs[1:] {
		q := counts[i+1].Load()
		total += q
		if q == 0 {
			t.Errorf("ns%d answered no queries: rotation is not spreading load", i)
		}
	}
	if total < n {
		t.Errorf("zone servers answered %d queries, want >= %d", total, n)
	}
}

// TestHealthDeprioritizesDeadServer: with one of two name servers dead,
// the resolver must stop burning a timeout on it once its health score
// drops, so steady-state resolutions cost one query.
func TestHealthDeprioritizesDeadServer(t *testing.T) {
	network := transport.NewMem(44)
	roots, nsAddrs, _ := nsWorld(t, network, 2, map[int]bool{1: true})
	r, err := NewResolver(network, netip.MustParseAddr("10.9.0.13"), roots, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Timeout = 20 * time.Millisecond
	r.Backoff = 0 // immediate retries: this test measures ordering, not pacing
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := r.Resolve(context.Background(), fmt.Sprintf("x%d.f.test", i), dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
		if i == n-5 {
			r.queries.Store(0) // count only the steady-state tail
		}
	}
	if got := r.QueriesSent(); got != 4 {
		t.Errorf("steady-state resolutions sent %d queries, want 4 (1 each): dead server still being tried first", got)
	}
	if dead, live := score(r.health, nsAddrs[1]), score(r.health, nsAddrs[0]); dead >= unhealthyScore || live < 0.9 {
		t.Errorf("scores: dead=%v live=%v", dead, live)
	}
	if r.TimeoutsSeen() == 0 {
		t.Error("no timeouts recorded against the dead server")
	}
}

// TestRetryBudgetFailsFast: under total loss a resolution must stop after
// the per-resolution retry budget, not after Retries × referral steps.
func TestRetryBudgetFailsFast(t *testing.T) {
	network := chaos.Wrap(transport.NewMem(45), chaos.Config{Name: "void", Loss: 1}, 7)
	roots, _, _ := nsWorld(t, network, 2, nil)
	r, err := NewResolver(network, netip.MustParseAddr("10.9.0.14"), roots, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Timeout = 5 * time.Millisecond
	r.Backoff = time.Millisecond
	r.MaxBackoff = 2 * time.Millisecond
	r.Retries = 100 // the budget, not the per-exchange cap, must bound work
	r.RetryBudget = 3
	res, err := r.Resolve(context.Background(), "x0.f.test", dnswire.TypeA)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if res.Queries != r.RetryBudget+1 {
		t.Errorf("queries = %d, want %d (initial + budget)", res.Queries, r.RetryBudget+1)
	}
	if res.Timeouts != res.Queries {
		t.Errorf("timeouts = %d, want %d", res.Timeouts, res.Queries)
	}
	if r.GiveUps() != 1 || r.Resolutions() != 1 {
		t.Errorf("giveups = %d, resolutions = %d", r.GiveUps(), r.Resolutions())
	}
}

// TestResolveUnderFlakyLoss: the flaky-1pct scenario must be fully
// absorbed by retransmission — every resolution still succeeds.
func TestResolveUnderFlakyLoss(t *testing.T) {
	cfg, err := chaos.Scenario("flaky-1pct")
	if err != nil {
		t.Fatal(err)
	}
	network := chaos.Wrap(transport.NewMem(46), cfg, 7)
	roots, _, _ := nsWorld(t, network, 3, nil)
	r, err := NewResolver(network, netip.MustParseAddr("10.9.0.15"), roots, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Timeout = 50 * time.Millisecond
	r.Backoff = time.Millisecond
	for i := 0; i < 30; i++ {
		res, err := r.Resolve(context.Background(), fmt.Sprintf("x%d.f.test", i), dnswire.TypeA)
		if err != nil {
			t.Fatalf("x%d: %v", i, err)
		}
		if len(addrs(res)) != 1 {
			t.Fatalf("x%d: addrs = %v", i, addrs(res))
		}
	}
}
