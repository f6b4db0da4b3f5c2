package experiment

import (
	"context"
	"reflect"
	"testing"

	"dpsadopt/internal/analysis"
	"dpsadopt/internal/core"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// countingSource counts AcquireBatch calls per partition.
type countingSource struct {
	core.BatchSource
	acquired map[core.Partition]int
}

func (c *countingSource) AcquireBatch(source string, day simtime.Day) (store.RowBatch, func(), error) {
	c.acquired[core.Partition{Source: source, Day: day}]++
	return c.BatchSource.AcquireBatch(source, day)
}

// TestTable2ReadsEachPartitionOnce: nine reference rows cost one read of
// each gTLD partition of the day.
func TestTable2ReadsEachPartitionOnce(t *testing.T) {
	r := shortRun(t)
	day := simtime.FromDate(2015, 7, 25)
	tmp, err := r.MaterializeDay(day)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{BatchSource: tmp, acquired: map[core.Partition]int{}}
	res, err := r.table2From(src, day)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Discovered) != 9 {
		t.Fatalf("rows = %d", len(res.Discovered))
	}
	want := map[core.Partition]int{}
	for _, tld := range worldsim.GTLDs() {
		want[core.Partition{Source: tld, Day: day}] = 1
	}
	if !reflect.DeepEqual(src.acquired, want) {
		t.Errorf("acquired %v, want each gTLD partition once", src.acquired)
	}
}

// anomaliesOracle is the Anomalies body the ascending-day walk replaced:
// per swing, a fresh store with the two days re-measured, aggregated and
// attributed.
func anomaliesOracle(t *testing.T, r *Runner, perProvider int) []AnomalyReport {
	t.Helper()
	var out []AnomalyReport
	g := worldsim.GTLDs()
	for p := range r.Refs.Providers {
		for _, sw := range r.Agg.LargestSwings(g, p, perProvider) {
			s := r.newDayScratch()
			for _, d := range []simtime.Day{sw.Prev, sw.Day} {
				if err := s.pipe.RunDay(context.Background(), d); err != nil {
					t.Fatal(err)
				}
			}
			agg := analysis.NewAggregator(r.Refs, s.store, nil)
			if err := agg.Run(g); err != nil {
				t.Fatal(err)
			}
			out = append(out, AnomalyReport{Provider: r.Refs.Providers[p].Name, Attribution: agg.Attribute(g, p, sw.Day)})
		}
	}
	return out
}

func measuredDays() int64 { return obs.Default().Snapshot().Counter("measure_days_total") }

// TestAnomaliesMeasureEachDayOnce: on a run where providers share swing
// days and day pairs overlap, Anomalies re-measures each distinct day
// exactly once and still returns, in provider order, what a two-day
// materialisation per swing returns.
func TestAnomaliesMeasureEachDayOnce(t *testing.T) {
	r := shortRun(t)
	const perProvider = 2
	g := worldsim.GTLDs()
	distinct, shared, overlap := map[simtime.Day]bool{}, false, false
	laterDays, earlierDays := map[simtime.Day]bool{}, map[simtime.Day]bool{}
	swings := 0
	for p := range r.Refs.Providers {
		for _, sw := range r.Agg.LargestSwings(g, p, perProvider) {
			swings++
			shared = shared || laterDays[sw.Day]
			laterDays[sw.Day], earlierDays[sw.Prev] = true, true
			distinct[sw.Prev], distinct[sw.Day] = true, true
		}
	}
	for d := range laterDays {
		overlap = overlap || earlierDays[d]
	}
	if !shared || !overlap || len(distinct) >= 2*swings {
		t.Fatalf("run has no shared swing day (%v) or no overlapping pairs (%v): %d swings over %d days", shared, overlap, swings, len(distinct))
	}

	before := measuredDays()
	got, err := r.Anomalies(perProvider)
	if err != nil {
		t.Fatal(err)
	}
	if n := measuredDays() - before; n != int64(len(distinct)) {
		t.Errorf("Anomalies measured %d days for %d distinct ones (%d swings)", n, len(distinct), swings)
	}
	if want := anomaliesOracle(t, r, perProvider); !reflect.DeepEqual(got, want) {
		t.Errorf("Anomalies:\n got %+v\nwant %+v", got, want)
	}
}

// TestDayScratchResidency: an ascending walk over shared and overlapping
// pairs measures each day once and never holds more than two.
func TestDayScratchResidency(t *testing.T) {
	r, err := New(Config{Scale: 200000, Workers: 2, Days: 12})
	if err != nil {
		t.Fatal(err)
	}
	s := r.newDayScratch()
	before := measuredDays()
	pairs := [][2]simtime.Day{{1, 2}, {1, 2}, {2, 3}, {3, 4}, {7, 8}, {7, 8}, {9, 11}}
	for _, pr := range pairs {
		if err := s.advance(pr[0], pr[1]); err != nil {
			t.Fatal(err)
		}
		if got := s.store.Days("com"); !reflect.DeepEqual(got, pr[:]) {
			t.Errorf("after advance%v the store holds %v", pr, got)
		}
	}
	if n := measuredDays() - before; n != 8 {
		t.Errorf("measured %d days, want 8 distinct ones", n)
	}
}
