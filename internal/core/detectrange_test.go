package core

import (
	"context"
	"testing"

	"dpsadopt/internal/obs"
)

// TestDetectRangeStats checks the stage-timing summary: stats account
// for every partition and row, the stage clocks are self-consistent,
// and utilization lands in (0, 1].
func TestDetectRangeStats(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	parts := Partitions(s)
	dets, st := DetectRangeStats(context.Background(), s, parts, refs, 2)
	if len(dets) != len(parts) {
		t.Fatalf("%d results for %d partitions", len(dets), len(parts))
	}
	if st.Partitions != len(parts) {
		t.Errorf("stats.Partitions = %d, want %d", st.Partitions, len(parts))
	}
	var rows int64
	for _, det := range dets {
		rows += int64(det.Rows)
	}
	if st.Rows != rows {
		t.Errorf("stats.Rows = %d, want %d", st.Rows, rows)
	}
	if st.Workers != 2 {
		t.Errorf("stats.Workers = %d, want 2", st.Workers)
	}
	if st.Wall <= 0 || st.Scan <= 0 {
		t.Errorf("non-positive clocks: wall=%v scan=%v", st.Wall, st.Scan)
	}
	if st.Busy() != st.Scan+st.Merge {
		t.Errorf("Busy() = %v, want scan+merge = %v", st.Busy(), st.Scan+st.Merge)
	}
	// Busy time cannot exceed pool capacity; utilization is a fraction.
	if u := st.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v, want (0, 1]", u)
	}
	if pps := st.PartitionsPerSec(); pps <= 0 {
		t.Errorf("partitions/sec = %v", pps)
	}
}

// TestDetectRangeStatsWorkerClamp: worker counts beyond the partition
// count are clamped, and the clamped pool still produces full stats
// (the ISSUE's workers > partitions case).
func TestDetectRangeStatsWorkerClamp(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	parts := Partitions(s)
	dets, st := DetectRangeStats(context.Background(), s, parts, refs, len(parts)*8)
	if st.Workers != len(parts) {
		t.Errorf("workers = %d, want clamp to %d partitions", st.Workers, len(parts))
	}
	for i, det := range dets {
		if det == nil {
			t.Fatalf("nil detection for %v", parts[i])
		}
	}
	if u := st.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v, want (0, 1]", u)
	}
}

// TestDetectRangeStatsEmpty: no partitions, zero stats, no divide-by-
// zero in the derived ratios.
func TestDetectRangeStatsEmpty(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	dets, st := DetectRangeStats(context.Background(), s, nil, refs, 4)
	if len(dets) != 0 || st.Partitions != 0 {
		t.Fatalf("empty input produced %d dets, stats %+v", len(dets), st)
	}
	if st.Utilization() != 0 || st.PartitionsPerSec() != 0 {
		t.Errorf("zero stats produced ratios: util=%v pps=%v", st.Utilization(), st.PartitionsPerSec())
	}
}

// TestRangeStatsAdd: accumulation folds counts and clocks and keeps the
// max worker count (per-day passes reuse one pool size).
func TestRangeStatsAdd(t *testing.T) {
	a := RangeStats{Partitions: 2, Rows: 10, Workers: 2, Wall: 100, Scan: 50, Merge: 20, QueueWait: 5, Barrier: 3}
	b := RangeStats{Partitions: 3, Rows: 20, Workers: 4, Wall: 200, Scan: 90, Merge: 30, QueueWait: 7, Barrier: 9}
	a.Add(b)
	if a.Partitions != 5 || a.Rows != 30 || a.Workers != 4 || a.Wall != 300 {
		t.Errorf("Add mismatch: %+v", a)
	}
	if a.Scan != 140 || a.Merge != 50 || a.QueueWait != 12 || a.Barrier != 12 {
		t.Errorf("Add clock mismatch: %+v", a)
	}
}

// TestDetectStageMetrics: one DetectRange pass populates every stage
// child of detect_stage_seconds and sets the utilization gauge.
func TestDetectStageMetrics(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	parts := Partitions(s)

	vec, ok := obs.Default().Lookup("detect_stage_seconds")
	if !ok {
		t.Fatal("detect_stage_seconds not registered")
	}
	stages := vec.(*obs.HistogramVec)
	before := map[string]uint64{}
	for _, stage := range []string{"queue_wait", "scan", "merge", "barrier"} {
		before[stage] = stages.With(stage).Count()
	}
	_, st := DetectRangeStats(context.Background(), s, parts, refs, 2)
	for _, stage := range []string{"queue_wait", "scan", "merge", "barrier"} {
		if got := stages.With(stage).Count(); got <= before[stage] {
			t.Errorf("detect_stage_seconds{stage=%q} count did not advance (%d -> %d)", stage, before[stage], got)
		}
	}
	m, ok := obs.Default().Lookup("detect_worker_utilization")
	if !ok {
		t.Fatal("detect_worker_utilization not registered")
	}
	if got := m.(*obs.Gauge).Value(); got != st.Utilization() {
		t.Errorf("utilization gauge = %v, want %v", got, st.Utilization())
	}
}
