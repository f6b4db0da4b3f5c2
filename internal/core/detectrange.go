package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/trace"
)

// Partition names one (source, day) detection unit.
type Partition struct {
	Source string
	Day    simtime.Day
}

// Partitions enumerates every stored (source, day) partition in
// (source, day) order — the natural input to DetectRangeStats.
func Partitions(s *store.Store) []Partition {
	var out []Partition
	for _, src := range s.Sources() {
		for _, day := range s.Days(src) {
			out = append(out, Partition{Source: src, Day: day})
		}
	}
	return out
}

// ReaderPartitions enumerates a streaming Reader's partitions from its
// directory — same (source, day) order as Partitions over the loaded
// store, no partition decoded.
func ReaderPartitions(r *store.Reader) []Partition {
	keys := r.Keys()
	out := make([]Partition, len(keys))
	for i, k := range keys {
		out[i] = Partition{Source: k.Source, Day: k.Day}
	}
	return out
}

// PartitionFailure records one partition DetectRangeSource could not
// classify — unreadable or corrupt under a streaming Reader. The
// partition's result slot stays nil; the caller decides whether that is
// degraded service or a fatal dataset problem.
type PartitionFailure struct {
	Source string
	Day    simtime.Day
	Err    error
}

// RangeStats describes where one DetectRangeSource call spent its time, per
// stage, summed across workers. It is the per-call counterpart of the
// detect_stage_seconds histograms: callers (experiment.Run,
// analysis.Aggregator.Run, api.NewIndex, the bench/ harness) use it to
// log and report per-core efficiency instead of inferring it from wall
// time.
type RangeStats struct {
	Partitions int           // partitions classified
	Rows       int64         // rows scanned
	Workers    int           // pool size actually used
	Wall       time.Duration // call wall time

	// Per-stage time, summed over workers. Scan+Merge is productive
	// work; QueueWait is time between finishing one partition and
	// claiming the next; Barrier is time workers that ran out of work
	// spent waiting for the slowest worker (the input-order result
	// barrier).
	Scan      time.Duration
	Merge     time.Duration
	QueueWait time.Duration
	Barrier   time.Duration
}

// Add folds another call's stats in (callers accumulate per-day passes
// into a run total).
func (st *RangeStats) Add(o RangeStats) {
	st.Partitions += o.Partitions
	st.Rows += o.Rows
	if o.Workers > st.Workers {
		st.Workers = o.Workers
	}
	st.Wall += o.Wall
	st.Scan += o.Scan
	st.Merge += o.Merge
	st.QueueWait += o.QueueWait
	st.Barrier += o.Barrier
}

// Busy is the productive time summed over workers (scan + merge).
func (st RangeStats) Busy() time.Duration { return st.Scan + st.Merge }

// Utilization is the fraction of the pool's wall-clock capacity spent
// doing productive work: Busy / (Workers × Wall). 1.0 means every worker
// scanned or merged for the whole call; the gap is queue wait, the
// result barrier, and scheduler/GC time.
func (st RangeStats) Utilization() float64 {
	cap := float64(st.Workers) * st.Wall.Seconds()
	if cap <= 0 {
		return 0
	}
	return st.Busy().Seconds() / cap
}

// PartitionsPerSec is the call's aggregate throughput.
func (st RangeStats) PartitionsPerSec() float64 {
	if st.Wall <= 0 {
		return 0
	}
	return float64(st.Partitions) / st.Wall.Seconds()
}

// workerClock is one worker's private stage accounting, folded into
// RangeStats after the pool drains (no shared state on the hot path).
type workerClock struct {
	scan, merge, wait time.Duration
	finished          time.Time // when this worker ran out of work
	failed            []PartitionFailure
}

// DetectRangeStats is DetectRangeSource over a resident *store.Store,
// where no partition can fail to read, so there are no failures to
// return.
func DetectRangeStats(ctx context.Context, s *store.Store, parts []Partition, refs *References, workers int) ([]*DayDetections, RangeStats) {
	out, st, _ := DetectRangeSource(ctx, s, parts, refs, workers)
	return out, st
}

// DetectRangeSource classifies a set of partitions from any BatchSource
// with a bounded worker pool and returns the detections in input order,
// the call's stage-timing summary, and the partitions that failed to
// read. Workers share the source, the references, and the per-dictionary
// ID matcher; partitions are independent, so throughput scales with the
// worker count until the memory bus saturates. workers <= 0 uses
// GOMAXPROCS. A cancelled context stops the pool early; unprocessed slots
// are nil.
//
// Workers pull partitions and acquire → detect → release, so over a
// streaming *store.Reader the resident set is O(workers × largest
// partition) plus the Reader's small LRU — never the whole dataset.
// Partitions that fail to read (corrupt spool, torn range) come back in
// the failures slice with their result slot nil; everything else is
// unaffected.
//
// Every consumer of multi-partition detection — the streaming experiment
// runner, Aggregator.Run, the dpsapi index build, the follower — funnels
// through here, so the fan-out and its metrics live in one place.
func DetectRangeSource(ctx context.Context, src BatchSource, parts []Partition, refs *References, workers int) ([]*DayDetections, RangeStats, []PartitionFailure) {
	out := make([]*DayDetections, len(parts))
	if len(parts) == 0 {
		return out, RangeStats{}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(parts) {
		workers = len(parts)
	}
	// Warm the matcher binding once so workers contend only on its
	// read-mostly internals, not on creation.
	if dict, err := src.SharedDict(); err == nil && dict != nil {
		refs.ForDict(dict)
	}
	start := time.Now()
	clocks := make([]workerClock, workers)
	var rows atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(clk *workerClock) {
			defer wg.Done()
			for {
				tWait := time.Now()
				if ctx.Err() != nil {
					break
				}
				i := int(next.Add(1)) - 1
				if i >= len(parts) {
					break
				}
				// Queue wait: the gap between being ready for work and
				// holding a claim. Near zero with the atomic cursor; a
				// regression here means work handoff became a bottleneck.
				wait := time.Since(tWait)
				clk.wait += wait
				mStageQueueWait.Observe(wait.Seconds())
				pt := parts[i]
				_, sp := trace.StartSpan(ctx, "core.detect",
					trace.Str("source", pt.Source), trace.Str("day", pt.Day.String()))
				det, scan, merge, err := detectSourceStaged(src, pt.Source, pt.Day, refs)
				if err != nil {
					clk.failed = append(clk.failed, PartitionFailure{Source: pt.Source, Day: pt.Day, Err: err})
					sp.SetAttr(trace.Str("error", err.Error()))
					sp.End()
					continue
				}
				clk.scan += scan
				clk.merge += merge
				rows.Add(int64(det.Rows))
				mStageScan.Observe(scan.Seconds())
				mStageMerge.Observe(merge.Seconds())
				sp.SetAttr(trace.Int("rows", int64(det.Rows)),
					trace.Int("detected", int64(det.CountAny())),
					trace.Int("scan_us", scan.Microseconds()),
					trace.Int("merge_us", merge.Microseconds()))
				sp.End()
				out[i] = det
			}
			clk.finished = time.Now()
		}(&clocks[w])
	}
	wg.Wait()
	end := time.Now()

	st := RangeStats{Partitions: len(parts), Rows: rows.Load(), Workers: workers, Wall: end.Sub(start)}
	var failed []PartitionFailure
	for i := range clocks {
		clk := &clocks[i]
		failed = append(failed, clk.failed...)
		st.Scan += clk.scan
		st.Merge += clk.merge
		st.QueueWait += clk.wait
		// Barrier: this worker sat idle from its own exit until the
		// slowest worker let wg.Wait return — the cost of demanding
		// input-order results from a single call.
		if !clk.finished.IsZero() {
			barrier := end.Sub(clk.finished)
			st.Barrier += barrier
			mStageBarrier.Observe(barrier.Seconds())
		}
	}
	mDetectUtilization.Set(st.Utilization())
	st.Partitions -= len(failed)
	return out, st, failed
}
