package chaos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"testing"
	"time"

	"dpsadopt/internal/dnsserver"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/dnszone"
	"dpsadopt/internal/transport"
)

func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) == 0 {
		t.Fatal("no scenarios registered")
	}
	for _, name := range names {
		cfg, err := Scenario(name)
		if err != nil {
			t.Fatalf("Scenario(%q): %v", name, err)
		}
		if cfg.Name != name {
			t.Errorf("Scenario(%q).Name = %q", name, cfg.Name)
		}
		if !cfg.Active() && !cfg.ServerActive() && !cfg.CoordActive() {
			t.Errorf("scenario %q injects nothing", name)
		}
		if cfg.Reorder > 0 && cfg.ReorderDelay == 0 {
			t.Errorf("scenario %q: Reorder without ReorderDelay default", name)
		}
		if cfg.Slow > 0 && cfg.SlowDelay == 0 {
			t.Errorf("scenario %q: Slow without SlowDelay default", name)
		}
	}
	if _, err := Scenario("no-such-scenario"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// collectSurvivors sends n sequence-stamped datagrams from a client to a
// port-53 listener through a chaos wrap and returns which sequence numbers
// arrived.
func collectSurvivors(t *testing.T, cfg Config, seed int64, memSeed int64, n int) map[uint32]int {
	t.Helper()
	net := Wrap(transport.NewMem(memSeed), cfg, seed)
	srvAddr := netip.MustParseAddrPort("10.0.0.1:53")
	srv, err := net.Listen(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := net.Dial(netip.MustParseAddr("10.9.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < n; i++ {
		var p [4]byte
		binary.BigEndian.PutUint32(p[:], uint32(i))
		if err := cli.WriteTo(p[:], srvAddr); err != nil {
			t.Fatal(err)
		}
	}
	got := map[uint32]int{}
	buf := make([]byte, 16)
	for {
		m, _, err := srv.ReadFrom(buf, 50*time.Millisecond)
		if errors.Is(err, transport.ErrTimeout) {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got[binary.BigEndian.Uint32(buf[:m])]++
	}
}

func TestLossDeterministicAcrossRuns(t *testing.T) {
	cfg, err := Scenario("flaky-10pct")
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	a := collectSurvivors(t, cfg, 7, 1, n)
	b := collectSurvivors(t, cfg, 7, 2, n) // different inner transport seed
	if len(a) == n {
		t.Fatalf("no datagrams lost out of %d at 10%% loss", n)
	}
	if len(a) < n/2 {
		t.Fatalf("only %d/%d survived 10%% loss", len(a), n)
	}
	for i := uint32(0); i < n; i++ {
		if (a[i] > 0) != (b[i] > 0) {
			t.Fatalf("seq %d: fate differs between identically-seeded runs", i)
		}
	}
	c := collectSurvivors(t, cfg, 8, 1, n)
	same := true
	for i := uint32(0); i < n; i++ {
		if (a[i] > 0) != (c[i] > 0) {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 7 and seed 8 injected identical loss patterns")
	}
}

func TestDuplicateDelivery(t *testing.T) {
	got := collectSurvivors(t, Config{Name: "dup", Duplicate: 1}, 3, 1, 50)
	for i := uint32(0); i < 50; i++ {
		if got[i] != 2 {
			t.Fatalf("seq %d delivered %d times, want 2", i, got[i])
		}
	}
}

// The transport pools payload buffers and the resolver reuses its query
// buffer, so a duplicated datagram must reach the reader intact twice even
// when the sender overwrites its buffer as soon as WriteTo returns — both
// sent at once and held back for a delayed send.
func TestDuplicateIntactWhenSenderReusesBuffer(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "dup", Duplicate: 1},
		{Name: "dup-delayed", Duplicate: 1, Latency: 2 * time.Millisecond},
	} {
		net := Wrap(transport.NewMem(1), cfg, 3)
		srvAddr := netip.MustParseAddrPort("10.0.0.1:53")
		srv, err := net.Listen(srvAddr)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := net.Dial(netip.MustParseAddr("10.9.0.1"))
		if err != nil {
			t.Fatal(err)
		}
		const n = 50
		scratch := make([]byte, 64)
		for i := 0; i < n; i++ {
			for j := range scratch {
				scratch[j] = byte(i)
			}
			if err := cli.WriteTo(scratch, srvAddr); err != nil {
				t.Fatal(err)
			}
			for j := range scratch {
				scratch[j] = 0xFF
			}
		}
		got := map[byte]int{}
		buf := make([]byte, 128)
		for read := 0; read < 2*n; read++ {
			m, _, err := srv.ReadFrom(buf, 200*time.Millisecond)
			if err != nil {
				t.Fatalf("%s: after %d datagrams: %v", cfg.Name, read, err)
			}
			if m != len(scratch) || bytes.Count(buf[:m], buf[:1]) != m || buf[0] == 0xFF {
				t.Fatalf("%s: datagram mangled: % x", cfg.Name, buf[:m])
			}
			got[buf[0]]++
		}
		for i := 0; i < n; i++ {
			if got[byte(i)] != 2 {
				t.Errorf("%s: payload %d arrived %d times, want 2", cfg.Name, i, got[byte(i)])
			}
		}
		srv.Close()
		cli.Close()
	}
}

// TestDelayedDeliveryArrives: every delay fault (latency, jitter,
// reordering hold-back, spikes) delays a datagram without losing or
// duplicating it.
func TestDelayedDeliveryArrives(t *testing.T) {
	cfg := Config{Name: "slowpath", Latency: 5 * time.Millisecond, Jitter: 5 * time.Millisecond,
		Reorder: 0.3, ReorderDelay: 3 * time.Millisecond, SpikeProb: 0.1, SpikeDelay: 20 * time.Millisecond}
	got := collectSurvivors(t, cfg, 3, 1, 50)
	for i := uint32(0); i < 50; i++ {
		if got[i] != 1 {
			t.Fatalf("seq %d delivered %d times, want 1", i, got[i])
		}
	}
}

func TestBlackholeOnlyKillsServers(t *testing.T) {
	net := Wrap(transport.NewMem(1), Config{Name: "dead", DeadFraction: 1}, 9)
	srvAddr := netip.MustParseAddrPort("10.0.0.1:53")
	srv, err := net.Listen(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := net.Dial(netip.MustParseAddr("10.9.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Client → server (port 53) vanishes silently.
	if err := cli.WriteTo([]byte("q"), srvAddr); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, _, err := srv.ReadFrom(buf, 20*time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("blackholed datagram was delivered (err=%v)", err)
	}
	// Server → client (ephemeral port) always routes.
	if err := srv.WriteTo([]byte("r"), cli.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.ReadFrom(buf, 100*time.Millisecond); err != nil {
		t.Fatalf("response to client port was dropped: %v", err)
	}
	// TCP to a dead server fails with ErrNoRoute.
	if _, err := net.DialStream(netip.MustParseAddr("10.9.0.1"), srvAddr); !errors.Is(err, transport.ErrNoRoute) {
		t.Fatalf("DialStream to dead server: err = %v, want ErrNoRoute", err)
	}
	// Protect exempts the address on both protocols.
	net.Protect(srvAddr.Addr())
	if err := cli.WriteTo([]byte("q2"), srvAddr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.ReadFrom(buf, 100*time.Millisecond); err != nil {
		t.Fatalf("datagram to protected server was dropped: %v", err)
	}
}

func TestPerFlowDecisionsIndependentOfInterleaving(t *testing.T) {
	// Two destination flows written in different interleavings must see
	// identical per-flow fault patterns: decisions hash the per-flow
	// sequence number, not a shared PRNG.
	run := func(interleave bool) (map[uint32]int, map[uint32]int) {
		net := Wrap(transport.NewMem(1), Config{Name: "flaky", Loss: 0.3}, 11)
		aAddr := netip.MustParseAddrPort("10.0.0.1:53")
		bAddr := netip.MustParseAddrPort("10.0.0.2:53")
		sa, err := net.Listen(aAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer sa.Close()
		sb, err := net.Listen(bAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer sb.Close()
		cli, err := net.Dial(netip.MustParseAddr("10.9.0.1"))
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		const n = 200
		write := func(i int, to netip.AddrPort) {
			var p [4]byte
			binary.BigEndian.PutUint32(p[:], uint32(i))
			if err := cli.WriteTo(p[:], to); err != nil {
				t.Fatal(err)
			}
		}
		if interleave {
			for i := 0; i < n; i++ {
				write(i, aAddr)
				write(i, bAddr)
			}
		} else {
			for i := 0; i < n; i++ {
				write(i, bAddr)
			}
			for i := 0; i < n; i++ {
				write(i, aAddr)
			}
		}
		drain := func(c transport.Conn) map[uint32]int {
			got := map[uint32]int{}
			buf := make([]byte, 16)
			for {
				m, _, err := c.ReadFrom(buf, 50*time.Millisecond)
				if errors.Is(err, transport.ErrTimeout) {
					return got
				}
				if err != nil {
					t.Fatal(err)
				}
				got[binary.BigEndian.Uint32(buf[:m])]++
			}
		}
		return drain(sa), drain(sb)
	}
	a1, b1 := run(true)
	a2, b2 := run(false)
	for i := uint32(0); i < 200; i++ {
		if (a1[i] > 0) != (a2[i] > 0) || (b1[i] > 0) != (b2[i] > 0) {
			t.Fatalf("seq %d: fault decision changed with write interleaving", i)
		}
	}
}

func TestServerFaults(t *testing.T) {
	// A network-only scenario yields a nil injector, and the nil injector
	// is a safe no-op.
	if f := NewServerFaults(Config{Loss: 0.5}, 1); f != nil {
		t.Error("network-only config produced a server injector")
	}
	var nilF *ServerFaults
	if fa, _ := nilF.QueryFault("example.com"); fa != dnsserver.FaultNone {
		t.Errorf("nil injector fault = %v", fa)
	}
	// trunc-storm truncates every query.
	cfg, err := Scenario("trunc-storm")
	if err != nil {
		t.Fatal(err)
	}
	f := NewServerFaults(cfg, 5)
	for i := 0; i < 20; i++ {
		if fa, _ := f.QueryFault("example.com"); fa != dnsserver.FaultTruncate {
			t.Fatalf("query %d: fault = %v, want truncate", i, fa)
		}
	}
	// Same seed → identical fault sequence; different seed → different.
	seq := func(seed int64) []dnsserver.Fault {
		sf := NewServerFaults(Config{Name: "sf", Servfail: 0.3, Slow: 0.2, SlowDelay: time.Millisecond}, seed)
		out := make([]dnsserver.Fault, 100)
		for i := range out {
			out[i], _ = sf.QueryFault("www.example.com")
		}
		return out
	}
	a, b, c := seq(5), seq(5), seq(6)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: fault differs between identically-seeded injectors", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 5 and 6 produced identical fault sequences")
	}
	// Slow faults carry the configured delay.
	sf := NewServerFaults(Config{Name: "slow", Slow: 1, SlowDelay: 7 * time.Millisecond}, 1)
	if fa, d := sf.QueryFault("x.test"); fa != dnsserver.FaultSlow || d != 7*time.Millisecond {
		t.Errorf("slow fault = %v/%v", fa, d)
	}
}

// A server on a wrapped Mem answers inline, and its replies pass through
// the wrapper: with every datagram duplicated, one query is answered
// twice and each answer delivered twice — all of it queued for the client
// before the query's WriteTo returns.
func TestServerAnswersInlineThroughFaults(t *testing.T) {
	net := Wrap(transport.NewMem(1), Config{Name: "dup", Duplicate: 1}, 5)
	z := dnszone.MustNew("f.test")
	z.MustAdd(dnswire.RR{Name: "f.test", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("10.1.0.1")}})
	srv := dnsserver.New()
	srv.AddZone(z)
	run, err := dnsserver.Start(srv, net, "10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stop()
	cli, err := net.Dial(netip.MustParseAddr("10.9.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	wire, err := dnswire.NewQuery(3, "f.test", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteTo(wire, netip.MustParseAddrPort("10.0.0.1:53")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, transport.MTU)
	for i := 0; i < 4; i++ {
		if _, _, err := cli.ReadFrom(buf, time.Nanosecond); err != nil {
			t.Fatalf("answer datagram %d not queued when the query's send returned: %v", i, err)
		}
	}
	if _, _, err := cli.ReadFrom(buf, 10*time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("fifth read: err = %v, want timeout", err)
	}
	if got := srv.Queries(); got != 2 {
		t.Errorf("server answered %d queries, want 2", got)
	}
}

// Over kernel sockets the wrapper cannot answer inline; a server started
// on it falls back to reading its socket and still answers.
func TestServerOverWrappedUDP(t *testing.T) {
	net := Wrap(transport.UDP{}, Config{Name: "dup", Duplicate: 1}, 5)
	if _, err := net.ListenHandler(netip.MustParseAddrPort("127.0.0.1:0"), nil); !errors.Is(err, transport.ErrNoHandler) {
		t.Fatalf("ListenHandler over UDP: err = %v, want ErrNoHandler", err)
	}
	z := dnszone.MustNew("f.test")
	z.MustAdd(dnswire.RR{Name: "f.test", Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("10.1.0.1")}})
	srv := dnsserver.New()
	srv.AddZone(z)
	run, err := dnsserver.Start(srv, net, "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	defer run.Stop()
	cli, err := net.Dial(netip.MustParseAddr("127.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	wire, err := dnswire.NewQuery(4, "f.test", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteTo(wire, run.Addr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, transport.MTU)
	n, _, err := cli.ReadFrom(buf, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := dnswire.Unpack(buf[:n]); err != nil || resp.ID != 4 || len(resp.Answers) != 1 {
		t.Errorf("answer = %+v, %v", resp, err)
	}
}
