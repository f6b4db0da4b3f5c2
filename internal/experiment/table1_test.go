package experiment

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// TestTable1OneDayBehindMatchesStore: the accountant sizes each day after
// the next one has started, and the rows it sums are the ones the store
// computes over its kept partitions, field for field.
func TestTable1OneDayBehindMatchesStore(t *testing.T) {
	r, err := New(Config{Scale: 200000, Workers: 2, Days: 4, KeepStore: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := r.Table1()
	if len(rows) != len(r.Store.Sources()) {
		t.Fatalf("Table 1 has %d rows, store %d sources", len(rows), len(r.Store.Sources()))
	}
	for _, row := range rows {
		got := store.Stats{Source: row.Source, Days: row.Days, UniqueSLDs: row.UniqueSLDs,
			DataPoints: row.DataPoints, CompressedBytes: row.CompressedBytes}
		if want := r.Store.SourceStats(row.Source); got != want {
			t.Errorf("%s: Table 1 %+v, store %+v", row.Source, got, want)
		}
	}
}

// TestCancelledRunLeavesNothingBehind: a run cancelled mid-window joins
// its accountant before returning, accounts exactly the committed days,
// drops them, and never holds more than two days' partitions.
func TestCancelledRunLeavesNothingBehind(t *testing.T) {
	r, err := New(Config{Scale: 200000, Workers: 2, Days: 6})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var committedRows int64
	committed := 0
	r.Cfg.OnDayProgress = func(p DayProgress) {
		committedRows += p.Rows
		committed = p.Done
		if p.Done == 3 {
			cancel()
		}
	}
	// The end of a measured day, before its detection, is when the most is
	// resident: the new day, and at most the day still being accounted.
	var prevRows int
	r.pipeline.Cfg.OnDay = func(day simtime.Day, rows int) {
		resident, days := 0, map[simtime.Day]bool{}
		for _, src := range r.Store.Sources() {
			for _, d := range r.Store.Days(src) {
				b, _ := r.Store.RowBatch(src, d)
				resident += b.Rows()
				days[d] = true
			}
		}
		if resident > rows+prevRows || len(days) > 2 {
			t.Errorf("%s: %d rows in %d days resident, two days hold %d", day, resident, len(days), rows+prevRows)
		}
		prevRows = rows
	}
	baseline := runtime.NumGoroutine()
	if err := r.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	// Read at once: a run that returned before its accountant finished
	// shows here as a short Table 1 or resident partitions.
	if committed != 3 {
		t.Fatalf("%d days committed, want 3", committed)
	}
	var points int64
	for _, row := range r.Table1() {
		points += row.DataPoints
		if row.Days != committed {
			t.Errorf("%s: Table 1 covers %d days, %d committed", row.Source, row.Days, committed)
		}
	}
	if points != committedRows {
		t.Errorf("Table 1 holds %d data points, the committed days %d", points, committedRows)
	}
	if srcs := r.Store.Sources(); len(srcs) != 0 {
		t.Errorf("partitions of %v left resident after the run", srcs)
	}
	// Every goroutine Run started has been joined, but one that has
	// released its WaitGroup may not have returned yet: wait, bounded,
	// for the count to come back, and fail on a goroutine that stays.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > baseline {
		t.Errorf("%d goroutines 5s after Run, %d before", n, baseline)
	}
}
