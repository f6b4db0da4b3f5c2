//go:build !race

package transport

import (
	"net/netip"
	"testing"
	"time"
)

// One datagram through Mem costs at most one allocation (the payload and
// the read timer are reused). Not under -race: the race runtime drops a
// random share of sync.Pool puts, and each datagram's payload comes from
// payloadPool.
func TestAllocsMemWriteRead(t *testing.T) {
	srv, cli := memPair(t)
	msg := make([]byte, 70)
	buf := make([]byte, MTU)
	got := testing.AllocsPerRun(200, func() {
		if err := cli.WriteTo(msg, srv.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.ReadFrom(buf, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("WriteTo+ReadFrom: %v allocs, want <= 1", got)
	}
}

// A query to a handler and its reply — the wire path's round trip — cost
// no allocation: the handler runs in the sender's goroutine and the reply
// rides a pooled payload.
func TestAllocsMemHandlerRoundTrip(t *testing.T) {
	n := NewMem(1)
	srv := echoHandler(t, n)
	cli, err := n.Dial(netip.MustParseAddr("10.9.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	msg := make([]byte, 70)
	buf := make([]byte, MTU)
	got := testing.AllocsPerRun(200, func() {
		if err := cli.WriteTo(msg, srv.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cli.ReadFrom(buf, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("handler round trip: %v allocs, want 0", got)
	}
}
