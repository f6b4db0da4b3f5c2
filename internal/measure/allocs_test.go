//go:build !race

package measure

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"dpsadopt/internal/store"
)

// TestRunDayAllocs holds a measurement day to its allocation budget per
// stored row: after a first day has warmed the writers' scratch pool, a
// day's writers fill pooled columns and each partition is allocated once,
// at its final size. Not under -race: the race runtime drops sync.Pool
// items.
func TestRunDayAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := midWorld(t)
	s := store.New()
	p := New(w, s, Config{Mode: ModeDirect, Workers: 2})
	start := w.Cfg.NLWindow.Start // nl + alexa + gTLDs all active
	least := 1e9
	for day := start; day < start+4; day++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := p.RunDay(context.Background(), day); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		rows := 0
		for _, src := range s.Sources() {
			b, _ := s.RowBatch(src, day)
			rows += b.Rows()
		}
		if day > start { // the first day warms the pool
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(rows))
		}
	}
	// Measured: 57 B a row on a warm day (the partitions themselves, the
	// Stage I lists and the pfx2as snapshot); writers that grew their own
	// columns and interned through the shared dictionary took 129. The
	// budget is 1.5× the measurement.
	const budget = 85.0
	if least > budget {
		t.Errorf("a warm day allocated %.1f bytes per row, budget %.0f", least, budget)
	}
}
