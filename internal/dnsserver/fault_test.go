package dnsserver

import (
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/transport"
)

// fixedFault orders the same fault for every query.
type fixedFault struct {
	fault Fault
	delay time.Duration
}

func (f fixedFault) QueryFault(netip.AddrPort, string) (Fault, time.Duration) {
	return f.fault, f.delay
}

// askUDP sends one query datagram and returns the decoded response, or nil
// on timeout.
func askUDP(t *testing.T, network transport.Network, server netip.AddrPort, name string, timeout time.Duration) *dnswire.Message {
	t.Helper()
	cli, err := network.Dial(netip.MustParseAddr("10.9.0.9"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	q := dnswire.NewQuery(77, name, dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteTo(wire, server); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, transport.MTU)
	n, _, err := cli.ReadFrom(buf, timeout)
	if errors.Is(err, transport.ErrTimeout) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestFaultInjection(t *testing.T) {
	network := transport.NewMem(31)
	srv := New()
	srv.AddZone(testZone())
	run, err := Start(srv, network, "10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stop()
	addr := netip.MustParseAddrPort("10.0.0.1:53")

	srv.SetFaults(fixedFault{fault: FaultServfail})
	if r := askUDP(t, network, addr, "www.examp.le", time.Second); r == nil || r.Flags.RCode != dnswire.RCodeServFail {
		t.Fatalf("servfail fault: resp = %+v", r)
	}

	srv.SetFaults(fixedFault{fault: FaultTruncate})
	r := askUDP(t, network, addr, "www.examp.le", time.Second)
	if r == nil || !r.Flags.Truncated || len(r.Answers) != 0 {
		t.Fatalf("truncate fault: resp = %+v", r)
	}

	srv.SetFaults(fixedFault{fault: FaultDrop})
	if r := askUDP(t, network, addr, "www.examp.le", 50*time.Millisecond); r != nil {
		t.Fatalf("drop fault: got response %+v", r)
	}

	srv.SetFaults(fixedFault{fault: FaultSlow, delay: 30 * time.Millisecond})
	start := time.Now()
	r = askUDP(t, network, addr, "www.examp.le", time.Second)
	if r == nil || len(r.Answers) != 1 {
		t.Fatalf("slow fault: resp = %+v", r)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("slow fault answered in %v, want >= 30ms", elapsed)
	}

	// Removing the injector restores normal answers.
	srv.SetFaults(nil)
	if r := askUDP(t, network, addr, "www.examp.le", time.Second); r == nil || len(r.Answers) != 1 || r.Flags.Truncated {
		t.Fatalf("after SetFaults(nil): resp = %+v", r)
	}
}

// slowFirst orders a slow answer for the first query only.
type slowFirst struct {
	delay time.Duration
	seen  atomic.Int64
}

func (f *slowFirst) QueryFault(netip.AddrPort, string) (Fault, time.Duration) {
	if f.seen.Add(1) == 1 {
		return FaultSlow, f.delay
	}
	return FaultNone, 0
}

// A slow answer delays only itself: the server answers the next query at
// once, so its answer arrives first, and the slow one follows after the
// delay. Over the in-memory network the first WriteTo must also return
// before the delay — the answer runs in the sender's goroutine.
func TestSlowAnswerDoesNotBlockServer(t *testing.T) {
	for _, c := range []struct {
		name    string
		network transport.Network
		addr    string
	}{
		{"mem", transport.NewMem(33), "10.0.0.1"},
		{"udp", transport.NewMappedUDP(), "10.0.0.1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			const delay = 250 * time.Millisecond
			srv := New()
			srv.AddZone(testZone())
			srv.SetFaults(&slowFirst{delay: delay})
			run, err := Start(srv, c.network, c.addr)
			if err != nil {
				t.Skipf("cannot bind: %v", err)
			}
			defer run.Stop()
			cli, err := c.network.Dial(netip.MustParseAddr("10.9.0.7"))
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			start := time.Now()
			for id := uint16(1); id <= 2; id++ {
				wire, err := dnswire.NewQuery(id, "www.examp.le", dnswire.TypeA).Pack()
				if err != nil {
					t.Fatal(err)
				}
				if err := cli.WriteTo(wire, netip.MustParseAddrPort("10.0.0.1:53")); err != nil {
					t.Fatal(err)
				}
			}
			if sent := time.Since(start); sent >= delay {
				t.Fatalf("sending two queries took %v, the slow answer's delay", sent)
			}
			buf := make([]byte, transport.MTU)
			for _, want := range []uint16{2, 1} {
				n, _, err := cli.ReadFrom(buf, 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := dnswire.Unpack(buf[:n])
				if err != nil || resp.ID != want || len(resp.Answers) != 1 {
					t.Fatalf("answer = %+v, %v; want ID %d with one record", resp, err, want)
				}
				if el := time.Since(start); (want == 2) != (el < delay) {
					t.Errorf("answer %d arrived after %v (slow delay %v)", want, el, delay)
				}
			}
		})
	}
}

// writeWatch is a Mem that counts the datagrams reaching its bound
// handlers and the answers they write.
type writeWatch struct {
	*transport.Mem
	arrived, answered atomic.Int64
}

type watchedConn struct {
	transport.Conn
	w *writeWatch
}

func (c watchedConn) WriteTo(p []byte, to netip.AddrPort) error {
	c.w.answered.Add(1)
	return c.Conn.WriteTo(p, to)
}

func (w *writeWatch) ListenHandler(addr netip.AddrPort, bind func(transport.Conn) transport.Handler) (transport.Conn, error) {
	return w.Mem.ListenHandler(addr, func(c transport.Conn) transport.Handler {
		h := bind(watchedConn{c, w})
		return func(p []byte, from netip.AddrPort) {
			w.arrived.Add(1)
			h(p, from)
		}
	})
}

// TestStopDrainsInFlightQueries exercises the graceful-shutdown guarantee
// under -race: senders keep querying while Stop lands. Every query that
// reached the server is fully answered before Stop returns, and no answer
// is written after it.
func TestStopDrainsInFlightQueries(t *testing.T) {
	network := &writeWatch{Mem: transport.NewMem(32)}
	srv := New()
	srv.AddZone(testZone())
	run, err := Start(srv, network, "10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	addr := netip.MustParseAddrPort("10.0.0.1:53")
	const senders, each = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		cli, err := network.Dial(netip.AddrFrom4([4]byte{10, 9, 0, byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				wire, err := dnswire.NewQuery(uint16(j), "www.examp.le", dnswire.TypeA).Pack()
				if err != nil {
					t.Error(err)
					return
				}
				if err := cli.WriteTo(wire, addr); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Let the senders get going so Stop lands mid-burst.
	for network.arrived.Load() < senders*each/4 {
		time.Sleep(time.Millisecond)
	}
	if err := run.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	answered, arrived := network.answered.Load(), network.arrived.Load()
	wg.Wait()
	// With only well-formed queries and no faults, answered == arrived.
	if answered != arrived {
		t.Errorf("answers = %d, datagrams arrived = %d: Stop abandoned in-flight queries", answered, arrived)
	}
	if got := network.arrived.Load(); got != arrived {
		t.Errorf("%d datagrams reached the server after Stop returned", got-arrived)
	}
	if got := network.answered.Load(); got != answered {
		t.Errorf("%d answers written after Stop returned", got-answered)
	}
}
