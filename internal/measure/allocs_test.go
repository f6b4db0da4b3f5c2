//go:build !race

package measure

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"dpsadopt/internal/store"
)

// The ceilings in this file are measured on the ordinary build. Not under
// -race: the race build allocates more than the ordinary one (40.8 against
// 37.0 bytes a row for TestRunDayAllocs' warm day).

// TestRunDayAllocs holds a measurement day to its allocation budget per
// stored row: after a first day has warmed the writers' scratch, a day's
// writers fill reused columns and each partition is allocated once, at
// its final size.
func TestRunDayAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := warmDayBytesPerRow(t, false)
	// Measured: 37 B a row on a warm day (the partitions themselves and
	// the pfx2as snapshot). Stage I lists and domain states made afresh
	// each day took 57, on which the budget, 1.5×, was set; writers that
	// grew their own columns and interned through the shared dictionary
	// took 129.
	const budget = 85.0
	if least > budget {
		t.Errorf("a warm day allocated %.1f bytes per row, budget %.0f", least, budget)
	}
}

// TestStreamedDayAllocs is TestRunDayAllocs as the experiment runner
// streams: each day's partitions are dropped once measured, so a warm
// day draws its partitions' blocks, its writers' scratch, its Stage I
// lists and its domain states from what the days before handed back, and
// allocates little beyond the pfx2as snapshot. The collector runs.
func TestStreamedDayAllocs(t *testing.T) {
	least := warmDayBytesPerRow(t, true)
	// Measured: 14 B a row on a warm day, against TestRunDayAllocs' 37
	// for a day whose partitions stay resident; the budget is 1.5× that.
	const budget = 21.0
	if least > budget {
		t.Errorf("a warm streamed day allocated %.1f bytes per row, budget %.0f", least, budget)
	}
}

// warmDayBytesPerRow measures four days in a row, each of the last three
// warm from the ones before, and returns the fewest bytes a warm day
// allocated per stored row. With drop, each day's partitions are dropped
// once counted, as Runner does after detection and sizing.
func warmDayBytesPerRow(t *testing.T, drop bool) float64 {
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
			if drop {
				s.DropDay(src, day)
			}
		}
		if day > start { // the first day warms the scratch
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(rows))
		}
	}
	return least
}
