package transport_test

import (
	"net/netip"
	"testing"
	"time"

	"dpsadopt/internal/chaos"
	"dpsadopt/internal/transport"
)

// Loss and delay on the in-memory network come from the chaos wrapper;
// these tests live outside package transport because chaos imports it.

// lossyRun sends total one-byte datagrams, numbered, through a wrapped Mem
// to a handler that records which ones arrived.
func lossyRun(t *testing.T, cfg chaos.Config, seed int64, total int) []bool {
	t.Helper()
	n := chaos.Wrap(transport.NewMem(1), cfg, seed)
	got := make([]bool, total)
	srv, err := n.ListenHandler(netip.MustParseAddrPort("10.0.0.1:53"), func(transport.Conn) transport.Handler {
		return func(p []byte, _ netip.AddrPort) {
			got[int(p[0])<<8|int(p[1])] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := n.Dial(netip.MustParseAddr("10.9.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < total; i++ {
		if err := cli.WriteTo([]byte{byte(i >> 8), byte(i)}, srv.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

func TestMemLossIsApplied(t *testing.T) {
	const total = 400
	dropped := 0
	for _, ok := range lossyRun(t, chaos.Config{Name: "half", Loss: 0.5}, 42, total) {
		if !ok {
			dropped++
		}
	}
	if dropped < total/4 || dropped > 3*total/4 {
		t.Errorf("dropped = %d of %d, expected near half", dropped, total)
	}
}

func TestMemLossDeterministic(t *testing.T) {
	cfg := chaos.Config{Name: "flaky", Loss: 0.3}
	a, b := lossyRun(t, cfg, 7, 100), lossyRun(t, cfg, 7, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("datagram %d: delivered %v in one run, %v in the other", i, a[i], b[i])
		}
	}
}

func TestMemDelay(t *testing.T) {
	n := chaos.Wrap(transport.NewMem(1), chaos.Config{Name: "slow", Latency: 30 * time.Millisecond}, 1)
	srv, _ := n.Listen(netip.MustParseAddrPort("10.0.0.1:53"))
	defer srv.Close()
	cli, _ := n.Dial(netip.MustParseAddr("10.9.0.1"))
	defer cli.Close()
	start := time.Now()
	_ = cli.WriteTo([]byte("x"), srv.LocalAddr())
	_, _, err := srv.ReadFrom(make([]byte, 16), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~30ms", el)
	}
}
