//go:build !race

package dnsclient

import (
	"context"
	"testing"

	"dpsadopt/internal/dnswire"
)

// One query/response round trip — Resolve, pack, Mem, the server's unpack,
// lookup and pack, Mem, unpack — stays inside the allocation budget of
// DESIGN.md ("wire path allocation budget"); AllocsPerRun counts client and
// server alike, as the server answers in the client's goroutine. Not under
// -race: the race runtime drops a random share of sync.Pool puts, and the
// round trip draws its compressor from dnswire's pool and its datagrams
// from transport's.
func TestAllocsResolveRoundTrip(t *testing.T) {
	w := newOneZoneWorld(t)
	r := w.resolver(t)
	ctx := context.Background()
	resolve := func() {
		res, err := r.Resolve(ctx, "examp.le", dnswire.TypeA)
		if err != nil || res.Queries != 1 || len(res.Records) != 1 {
			t.Fatalf("Resolve = %+v, %v; want one query, one record", res, err)
		}
	}
	resolve() // warm the pools and scratch buffers
	// 11 at the last count: the client's query and decoded response, and
	// the server's question name.
	if got := testing.AllocsPerRun(200, resolve); got > 12 {
		t.Errorf("one resolution, client and server: %v allocs, want <= 12", got)
	}
}
