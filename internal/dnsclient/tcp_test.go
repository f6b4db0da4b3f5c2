package dnsclient

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dpsadopt/internal/dnsserver"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/dnszone"
	"dpsadopt/internal/transport"
)

// bigWorld serves a zone whose answer exceeds any UDP payload: the
// resolver must detect TC and retry over TCP.
func bigWorld(t *testing.T, network transport.Network) (roots []netip.AddrPort, records int) {
	t.Helper()
	records = 400 // 400 A records ≈ 6.4 KB of RDATA: above the 4096 MTU
	z := dnszone.MustNew("big.test")
	z.MustAdd(dnswire.RR{Name: "big.test", Type: dnswire.TypeSOA, TTL: 1, Data: dnswire.SOA{MName: "ns.big.test", RName: "h.big.test", Serial: 1}})
	z.MustAdd(dnswire.RR{Name: "big.test", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.big.test"}})
	for i := 0; i < records; i++ {
		z.MustAdd(dnswire.RR{Name: "many.big.test", Type: dnswire.TypeA, TTL: 1,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})}})
	}
	root := dnszone.MustNew(".")
	root.MustAdd(dnswire.RR{Name: "test", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.big.test"}})
	root.MustAdd(dnswire.RR{Name: "ns.big.test", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("10.0.0.1")}})

	rootSrv := dnsserver.New()
	rootSrv.AddZone(root)
	bigSrv := dnsserver.New()
	bigSrv.AddZone(z)
	tz := dnszone.MustNew("test")
	bigSrv.AddZone(tz)

	for _, s := range []struct {
		srv  *dnsserver.Server
		addr string
	}{{rootSrv, "10.0.0.100"}, {bigSrv, "10.0.0.1"}} {
		run, err := dnsserver.Start(s.srv, network, s.addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { run.Stop() })
		stream, err := dnsserver.StartStream(s.srv, network, s.addr)
		if err != nil {
			t.Fatal(err)
		}
		if stream != nil {
			t.Cleanup(func() { stream.Stop() })
		}
	}
	return []netip.AddrPort{netip.MustParseAddrPort("10.0.0.100:53")}, records
}

func TestTCPFallbackOnTruncation(t *testing.T) {
	network := transport.NewMem(5)
	roots, records := bigWorld(t, network)
	r, err := NewResolver(network, netip.MustParseAddr("10.9.0.1"), roots, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Resolve(context.Background(), "many.big.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(addrs(res)); got != records {
		t.Errorf("addresses = %d, want %d (TCP fallback should deliver all)", got, records)
	}
}

func TestTCPFallbackSmallEDNS(t *testing.T) {
	// Even a modest answer truncates when the client advertises a small
	// payload; the TCP retry must still recover everything.
	network := transport.NewMem(6)
	roots, records := bigWorld(t, network)
	r, err := NewResolver(network, netip.MustParseAddr("10.9.0.2"), roots, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.UDPSize = 512
	res, err := r.Resolve(context.Background(), "many.big.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(addrs(res)); got != records {
		t.Errorf("addresses = %d, want %d", got, records)
	}
	// Small answers still travel UDP-only: resolve the NS set and check
	// no extra TCP queries were needed (queries counter sanity).
	before := r.QueriesSent()
	if _, err := r.Resolve(context.Background(), "big.test", dnswire.TypeNS); err != nil {
		t.Fatal(err)
	}
	if r.QueriesSent()-before != 1 {
		t.Errorf("NS resolution took %d queries, want 1", r.QueriesSent()-before)
	}
}

func TestTCPFallbackOverKernelSockets(t *testing.T) {
	network := transport.NewMappedUDP()
	roots, records := bigWorld(t, network)
	r, err := NewResolver(network, netip.MustParseAddr("10.9.0.3"), roots, 9)
	if err != nil {
		t.Skipf("cannot bind: %v", err)
	}
	defer r.Close()
	r.Timeout = time.Second
	res, err := r.Resolve(context.Background(), "many.big.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(addrs(res)); got != records {
		t.Errorf("addresses = %d, want %d", got, records)
	}
}

func TestServeStreamMultipleQueries(t *testing.T) {
	network := transport.NewMem(11)
	roots, _ := bigWorld(t, network)
	_ = roots
	sn := transport.StreamNetwork(network)
	conn, err := sn.DialStream(netip.MustParseAddr("10.9.0.4"), netip.MustParseAddrPort("10.0.0.1:53"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two sequential queries on one connection.
	for i := 0; i < 2; i++ {
		q := dnswire.NewQuery(uint16(100+i), "big.test", dnswire.TypeNS)
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := dnswire.WriteFramed(conn, wire); err != nil {
			t.Fatal(err)
		}
		msg, err := dnswire.ReadFramed(conn)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dnswire.Unpack(msg)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != uint16(100+i) || len(resp.Answers) != 1 {
			t.Errorf("query %d: %+v", i, resp)
		}
	}
}

func TestStreamListenerAddrInUse(t *testing.T) {
	network := transport.NewMem(12)
	addr := netip.MustParseAddrPort("10.0.0.5:53")
	l1, err := network.ListenStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := network.ListenStream(addr); err == nil {
		t.Error("duplicate stream listen accepted")
	}
	l1.Close()
	l2, err := network.ListenStream(addr)
	if err != nil {
		t.Errorf("listen after close: %v", err)
	} else {
		l2.Close()
	}
	// Dial to a closed listener fails.
	if _, err := network.DialStream(netip.MustParseAddr("10.9.0.5"), netip.MustParseAddrPort("10.0.0.77:53")); err == nil {
		t.Error("dial to absent stream listener accepted")
	}
}
