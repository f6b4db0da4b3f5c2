//go:build !race

package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
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
	least := leastAlloc(build)
	// Measured: 80 KB a day against a largest day of 467 KB; the budget is
	// 1.5× that. With exact-fit per-Reader pools and fold maps made afresh
	// every day it was 818 KB a day.
	perDay := least / days
	if budget := lastDay / 4; perDay > budget {
		t.Errorf("index build allocated %d bytes per day over %d days, budget %d (largest day holds %d bytes)",
			perDay, days, budget, lastDay)
	}
}

// TestApplyAllocsPerDay holds the follower's daily fold to its O(delta)
// path: applying one new day after a 60-day index must allocate a small
// fraction of what a from-scratch NewIndex over the same data does. A
// fold that re-explodes every touched domain's history (repackDomain
// instead of appendDomain) costs a large share of a rebuild and fails.
func TestApplyAllocsPerDay(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const baseDays = 60
	refs := core.MustGroundTruth()
	p0 := refs.Providers[0]
	fill := func(s *store.Store, day simtime.Day) {
		for _, src := range []string{"com", "net", "org"} {
			w := s.NewWriter(src, day)
			for i := 0; i < 600; i++ {
				dom := fmt.Sprintf("d%05d.%s", i, src)
				asns := []uint32{64500 + uint32(i%1000)} // claimed by nobody
				if i%4 == 0 && (i+int(day))%7 != 0 {     // detected, with gaps
					asns = p0.ASNs[:1]
				}
				w.AddAddr(dom, store.KindApexA, mustAddr("192.0.2.7"), asns)
				w.AddStr(dom, store.KindNS, "ns1.hoster.example")
			}
			w.Commit()
		}
	}
	base, delta, combined := store.New(), store.New(), store.New()
	for d := simtime.Day(0); d < baseDays; d++ {
		fill(base, d)
		fill(combined, d)
	}
	fill(delta, baseDays)
	fill(combined, baseDays)
	idx := NewIndex(base, refs)
	var ups []PartitionUpdate
	for _, p := range core.Partitions(delta) {
		ups = append(ups, PartitionUpdate{Source: p.Source, Day: p.Day, Det: core.DetectDay(delta, p.Source, p.Day, refs)})
	}
	apply := leastAlloc(func() {
		if next, _ := idx.Apply(ups); len(next.Days()) != baseDays+1 {
			t.Fatalf("apply indexed %d days, want %d", len(next.Days()), baseDays+1)
		}
	})
	rebuild := leastAlloc(func() { NewIndex(combined, refs) })
	// Measured: 387 KB against a 1.98 MB rebuild (20 %, at GOMAXPROCS 1, 2
	// and 4); the budget is 1.5× that share. With repackDomain in
	// appendDomain's place the fold allocates 2.41 MB, more than the
	// rebuild itself.
	if budget := rebuild * 3 / 10; apply > budget {
		t.Errorf("one-day apply allocated %d bytes, budget %d (30 %% of a %d-byte rebuild)", apply, budget, rebuild)
	}
}

// leastAlloc runs fn once to warm the store's pools, then returns the
// fewest bytes any of three more runs allocated.
func leastAlloc(fn func()) uint64 {
	least := ^uint64(0)
	fn()
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestCachedRequestAllocs holds a warm memoized /v1/domain hit through
// Server.Handler() to the one allocation net/http's mux makes matching
// the {name} path value. The server itself allocates nothing on it: no
// deadline context or timer (the gate arms one only when it must wait),
// no request copy, no key (the index's own map is the lookup) and no
// Content-Type slice.
func TestCachedRequestAllocs(t *testing.T) {
	srv := fixtureServer(t, Config{})
	hits0 := mCacheHits.Value()
	serve := cachedRequest(t, srv)
	if allocs := testing.AllocsPerRun(200, serve); allocs > 1 {
		t.Errorf("memoized /v1/domain hit: %.1f allocations, ceiling 1 (the mux's path match)", allocs)
	}
	if mCacheHits.Value()-hits0 < 200 {
		t.Fatalf("the measured requests were not memo hits")
	}
}

// BenchmarkCachedRequest prices one memoized /v1/domain hit through the
// whole serving stack, with the default query observatory and without
// one: the difference is what the observatory costs a request.
func BenchmarkCachedRequest(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"observatory", Config{}},
		{"bare", Config{ObservatoryOff: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			serve := cachedRequest(b, fixtureServer(b, bc.cfg))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// cachedRequest warms srv's memo with one /v1/domain answer and returns
// a function that serves that request again, reusing one request and
// one writer so that only the server's own allocations remain.
func cachedRequest(tb testing.TB, srv *Server) func() {
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/domain/alpha.com", nil)
	w := &discardWriter{h: make(http.Header)}
	serve := func() { h.ServeHTTP(w, req) }
	serve()
	serve()
	if w.code != http.StatusOK {
		tb.Fatalf("warm-up request: %d", w.code)
	}
	return serve
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status code.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
