//go:build !race

package transport

import (
	"testing"
	"time"
)

// One datagram through Mem costs at most one allocation (the payload and
// the read timer are reused). Not under -race: the race runtime drops
// sync.Pool items.
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
