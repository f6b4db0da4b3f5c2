//go:build !race

package api

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// TestIndexReaderAllocsPerDay holds the out-of-core index build to an
// allocation budget per detection-day: with the store's pools warm, a
// build over partitions that grow every day allocates a fraction of one
// day's bytes per day — the detections and the index it keeps — and not
// every partition's buffers plus a fresh set of fold maps. Not under
// -race: the race runtime drops sync.Pool items.
func TestIndexReaderAllocsPerDay(t *testing.T) {
	// A collection empties sync.Pools; what is under test is reuse, not
	// when the collector runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const days = 20
	refs := core.MustGroundTruth()
	p0 := refs.Providers[0]
	s := store.New()
	for _, src := range []string{"com", "net", "org"} {
		for d := 0; d < days; d++ {
			w := s.NewWriter(src, simtime.Day(d))
			for i := 0; i < 1500+60*d; i++ {
				dom := fmt.Sprintf("d%05d.%s", i, src)
				asns := []uint32{64500 + uint32(i%1000)} // claimed by nobody
				if i%10 == 0 {
					asns = p0.ASNs[:1]
				}
				w.AddAddr(dom, store.KindApexA, mustAddr("192.0.2.7"), asns)
				w.AddAddr(dom, store.KindWWWA, mustAddr("192.0.2.8"), asns)
				w.AddStr(dom, store.KindNS, "ns1.hoster.example")
			}
			w.Commit()
		}
	}
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	parts, err := store.Directory(path)
	if err != nil {
		t.Fatal(err)
	}
	var lastDay uint64 // bytes of the largest day, all sources
	for _, p := range parts {
		if p.Day == days-1 {
			_, length := p.Extent()
			lastDay += length
		}
	}
	build := func() {
		r, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := NewIndexReader(r, refs); err != nil {
			t.Fatal(err)
		}
	}
	build() // warm the store's pools
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	// Measured: 80 KB a day against a largest day of 467 KB; the budget is
	// 1.5× that. With exact-fit per-Reader pools and fold maps made afresh
	// every day it was 818 KB a day.
	perDay := least / days
	if budget := lastDay / 4; perDay > budget {
		t.Errorf("index build allocated %d bytes per day over %d days, budget %d (largest day holds %d bytes)",
			perDay, days, budget, lastDay)
	}
}
