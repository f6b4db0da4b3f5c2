package coord

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"dpsadopt/internal/chaos"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

func rowKeys(s *store.Store, source string, day simtime.Day) []string {
	var keys []string
	s.ForEachRow(source, day, func(r store.Row) {
		asns := append([]uint32(nil), r.ASNs...)
		sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
		keys = append(keys, fmt.Sprintf("%s|%v|%v|%s|%v", r.Domain, r.Kind, r.Addr, r.Str, asns))
	})
	sort.Strings(keys)
	return keys
}

// TestCoordinatorMeasureIntegration is the end-to-end exactly-once
// check of the acceptance criterion: a coordinator with 3 workers runs
// the real measure pipeline partition by partition under the seeded
// worker-crash scenario (with coordinator restarts riding along), and
// the assembled dataset is row-for-row identical to a single-process
// RunDay reference — every (source, day) exactly once, no partition
// lost to a crash, none double-committed.
func TestCoordinatorMeasureIntegration(t *testing.T) {
	world, err := worldsim.New(worldsim.DefaultConfig(400_000))
	if err != nil {
		t.Fatal(err)
	}
	const days = 4
	start := world.Cfg.Window.Start

	// Reference: the classic single-process measurement of the same days.
	ref := store.New()
	refPipe := measure.New(world, ref, measure.Config{Mode: measure.ModeDirect, Workers: 2})
	var parts []Partition
	for d := 0; d < days; d++ {
		day := start + simtime.Day(d)
		if err := refPipe.RunDay(context.Background(), day); err != nil {
			t.Fatal(err)
		}
		for _, src := range refPipe.DaySources(day) {
			parts = append(parts, Partition{Source: src, Day: day})
		}
	}

	// Coordinated run: each work call measures one partition into a
	// fresh spool store via the same pipeline. Parallelism comes from
	// the coordinator's workers, so the inner pipeline runs single-
	// threaded.
	work := func(ctx context.Context, p Partition, attempt int) (*store.Store, error) {
		s := store.New()
		pipe := measure.New(world, s, measure.Config{Mode: measure.ModeDirect, Workers: 1})
		if err := pipe.RunPartition(ctx, p.Source, p.Day); err != nil {
			return nil, err
		}
		return s, nil
	}
	sc, err := chaos.Scenario("worker-crash")
	if err != nil {
		t.Fatal(err)
	}
	// coord-restart rides along so the journal replay path runs too.
	sc.CoordRestart = 0.1
	cfg := Config{
		Dir:            t.TempDir(),
		Workers:        3,
		LeaseTTL:       200 * time.Millisecond,
		HeartbeatEvery: 40 * time.Millisecond,
		MaxAttempts:    10,
		RetryBackoff:   5 * time.Millisecond,
		Work:           work,
		Faults:         chaos.NewCoordFaults(sc, 42),
	}
	c, err := Drive(context.Background(), cfg, parts, func(restarts int) error {
		if restarts > 30 {
			return errors.New("coordinator did not settle within 30 restarts")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}

	stats := c.Stats()
	if stats.Committed != len(parts) {
		t.Fatalf("committed %d of %d partitions: %+v", stats.Committed, len(parts), stats)
	}
	crashed := 0
	for _, row := range c.Ledger() {
		if row.State != StateCommitted {
			t.Fatalf("ledger row not committed: %+v", row)
		}
		if row.Attempts > 1 {
			crashed++
		}
	}
	if crashed == 0 {
		t.Error("worker-crash scenario burned no retries — chaos not exercised")
	}

	assembled, damaged, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if len(damaged) != 0 {
		t.Fatalf("unexpected spool damage: %+v", damaged)
	}
	for _, p := range parts {
		want := rowKeys(ref, p.Source, p.Day)
		got := rowKeys(assembled, p.Source, p.Day)
		if len(want) == 0 {
			t.Fatalf("%s: reference partition empty", p)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows assembled, reference has %d (duplicate or lost commit)", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d differs:\nwant %s\ngot  %s", p, i, want[i], got[i])
			}
		}
	}
}
