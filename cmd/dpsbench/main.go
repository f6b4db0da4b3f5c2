// Command dpsbench is the detection scaling observatory's harness: it
// sweeps GOMAXPROCS × detection workers over a measured dataset, runs
// core.DetectRangeStats to steady state in every cell, and records
// throughput, per-core efficiency, stage timing, allocations, and the
// GC's CPU share per cell to results/BENCH_detect.json (schema
// benchfmt.DetectSchema, one row per cell).
//
// The dataset is either generated (-scale/-days, direct-fidelity
// measurement over a synthetic world — deterministic, so two runs of the
// same binary sweep identical data) or loaded from a prior dpsmeasure
// run (-data run.dpsa).
//
// With -profiles DIR the harness also writes pprof artifacts: one CPU
// profile per cell (cpu_g<G>_w<W>.pprof) and, when -prof-mutex /
// -prof-block are set, a final mutex.pprof / block.pprof covering the
// whole sweep — the inputs for diagnosing which lock or stage eats the
// scaling headroom.
//
// Usage:
//
//	dpsbench [-scale 50000] [-days 4] [-data run.dpsa]
//	         [-gomaxprocs 1,2,4] [-workers 1,2,4] [-mintime 2s]
//	         [-out results/BENCH_detect.json] [-profiles results/profiles]
//	         [-prof-mutex 5] [-prof-block 0] [-quiet] [-log-json]
//	dpsbench -scalesweep 2000,1000,300 [-days 4]
//	         [-scale-out results/BENCH_scale.json]
//
// -scalesweep switches to the out-of-core scale sweep: per scale
// divisor, one dataset is measured to disk and the serving index is
// built twice from that file — store.Load + api.NewIndex versus the
// streaming store.Open + api.NewIndexReader — recording wall time,
// throughput, peak heap/RSS, and a parity check into BENCH_scale.json
// (schema benchfmt.ScaleSchema).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dpsadopt/internal/benchfmt"
	"dpsadopt/internal/core"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

func main() {
	var (
		scale      = flag.Int("scale", 50_000, "world scale divisor for the generated dataset")
		days       = flag.Int("days", 4, "days to measure into the generated dataset")
		data       = flag.String("data", "", "load this .dpsa dataset instead of generating one")
		gomaxprocs = flag.String("gomaxprocs", "1,2,4", "comma-separated GOMAXPROCS values to sweep")
		workers    = flag.String("workers", "1,2,4", "comma-separated DetectRange worker counts to sweep")
		minTime    = flag.Duration("mintime", 2*time.Second, "minimum wall time per sweep cell")
		out        = flag.String("out", "results/BENCH_detect.json", "result JSON path")
		profiles   = flag.String("profiles", "", "write pprof profiles into this directory (empty = off)")
		profMutex  = flag.Int("prof-mutex", 0, "mutex profiling fraction (runtime.SetMutexProfileFraction; 0 = off)")
		profBlock  = flag.Int("prof-block", 0, "block profiling rate in ns (runtime.SetBlockProfileRate; 0 = off)")
		quiet      = flag.Bool("quiet", false, "suppress progress logging (warnings still shown)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON")

		scaleSweep = flag.String("scalesweep", "", "comma-separated world scale divisors: run the full-vs-streaming index build sweep instead of the detect sweep")
		scaleOut   = flag.String("scale-out", "results/BENCH_scale.json", "scale sweep result JSON path (with -scalesweep)")
	)
	flag.Parse()

	if *logJSON {
		obs.SetLogger(obs.NewLogger(os.Stderr, slog.LevelInfo, true))
	}
	if *quiet {
		obs.SetQuiet()
	}
	log := obs.Logger()

	if *scaleSweep != "" {
		scales, err := parseList(*scaleSweep)
		if err != nil {
			fatal(fmt.Errorf("-scalesweep: %w", err))
		}
		if err := runScaleSweep(scales, *days, *scaleOut, log); err != nil {
			fatal(err)
		}
		return
	}

	gpList, err := parseList(*gomaxprocs)
	if err != nil {
		fatal(fmt.Errorf("-gomaxprocs: %w", err))
	}
	wList, err := parseList(*workers)
	if err != nil {
		fatal(fmt.Errorf("-workers: %w", err))
	}
	if *profiles != "" {
		if err := os.MkdirAll(*profiles, 0o755); err != nil {
			fatal(err)
		}
	}
	// Contention profiling covers the entire sweep; the profiles are
	// cumulative, so they are dumped once at the end.
	obs.SetContentionProfiling(*profMutex, *profBlock)

	s, world, err := dataset(*data, *scale, *days)
	if err != nil {
		fatal(err)
	}
	refs := core.MustGroundTruth()
	parts := core.Partitions(s)
	if len(parts) == 0 {
		fatal(fmt.Errorf("dataset has no partitions to detect over"))
	}
	log.Info("sweep starting", "world", world, "partitions", len(parts),
		"num_cpu", runtime.NumCPU(), "gomaxprocs", *gomaxprocs, "workers", *workers,
		"mintime", minTime.String())

	origGP := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origGP)

	doc := &benchfmt.DetectDoc{
		Bench:     "detect",
		Schema:    benchfmt.DetectSchema,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Source:    "dpsbench",
		World:     world,
		DayEngine: dayEngine(s, parts[0], refs, *minTime),
	}
	for _, g := range gpList {
		runtime.GOMAXPROCS(g)
		for _, w := range wList {
			cell := runCell(s, parts, refs, g, w, *minTime, *profiles)
			doc.Sweep = append(doc.Sweep, cell)
			log.Info("cell complete",
				"gomaxprocs", g, "workers", w, "iters", cell.Iters,
				"partitions_per_sec", fmt.Sprintf("%.1f", cell.PartitionsPerSec),
				"utilization", fmt.Sprintf("%.3f", cell.Utilization),
				"allocs_per_partition", fmt.Sprintf("%.0f", cell.AllocsPerPartition),
				"gc_share", fmt.Sprintf("%.3f", cell.GCShare))
		}
	}
	runtime.GOMAXPROCS(origGP)
	doc.FillEfficiency()

	if *profiles != "" {
		dumpContention(*profiles, *profMutex, *profBlock, log)
	}
	if err := doc.Write(*out); err != nil {
		fatal(err)
	}
	log.Info("sweep written", "out", *out, "cells", len(doc.Sweep))

	if !*quiet {
		fmt.Printf("\n%-10s %-8s %12s %12s %8s %10s %9s\n",
			"gomaxprocs", "workers", "parts/sec", "rows/sec", "util", "allocs/pt", "eff/core")
		for _, c := range doc.Sweep {
			fmt.Printf("%-10d %-8d %12.1f %12.0f %8.3f %10.0f %9.2f\n",
				c.Gomaxprocs, c.Workers, c.PartitionsPerSec, c.RowsPerSec,
				c.Utilization, c.AllocsPerPartition, c.EfficiencyPerCore)
		}
	}
}

// dataset builds or loads the store the sweep detects over, returning a
// description for the result doc.
func dataset(data string, scale, days int) (*store.Store, string, error) {
	if data != "" {
		s, err := store.Load(data)
		var partial *store.PartialLoadError
		if errors.As(err, &partial) {
			fmt.Fprintf(os.Stderr, "dpsbench: warning: %v; benchmarking the salvaged dataset\n", partial)
		} else if err != nil {
			return nil, "", err
		}
		return s, "data=" + data, nil
	}
	w, err := worldsim.New(worldsim.DefaultConfig(scale))
	if err != nil {
		return nil, "", err
	}
	s := store.New()
	p := measure.New(w, s, measure.Config{Mode: measure.ModeDirect, Workers: 4})
	for d := 0; d < days; d++ {
		day := w.Cfg.Window.Start + simtime.Day(d)
		if err := p.RunDay(context.Background(), day); err != nil {
			return nil, "", err
		}
	}
	return s, fmt.Sprintf("synthetic scale=%d days=%d", scale, days), nil
}

// dayEngine times the single-partition ID-native scan against the
// retained string-keyed baseline (the ablation the README quotes),
// spending at most a fraction of a cell's budget on each.
func dayEngine(s *store.Store, pt core.Partition, refs *core.References, minTime time.Duration) *benchfmt.DayEngine {
	budget := minTime / 4
	timeIt := func(fn func()) (nsPerOp, allocsPerOp float64) {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		iters := 0
		start := time.Now()
		for time.Since(start) < budget || iters == 0 {
			fn()
			iters++
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		n := float64(iters)
		return float64(elapsed.Nanoseconds()) / n, float64(ms1.Mallocs-ms0.Mallocs) / n
	}
	de := &benchfmt.DayEngine{}
	de.IDNsOp, de.IDAllocsOp = timeIt(func() { core.DetectDay(s, pt.Source, pt.Day, refs) })
	de.BaselineNsOp, de.BaselineAllocsOp = timeIt(func() { core.DetectDayBaseline(s, pt.Source, pt.Day, refs) })
	if de.IDNsOp > 0 {
		de.SpeedupX = de.BaselineNsOp / de.IDNsOp
	}
	if de.IDAllocsOp > 0 {
		de.AllocsRatioX = de.BaselineAllocsOp / de.IDAllocsOp
	}
	return de
}

// cpuClasses reads the runtime's cumulative GC and total CPU seconds
// (estimates, refreshed by metrics.Read).
func cpuClasses() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

// runCell runs DetectRange repeatedly at one (gomaxprocs, workers)
// setting until minTime elapses, bracketed by GC/alloc accounting.
func runCell(s *store.Store, parts []core.Partition, refs *core.References, g, w int, minTime time.Duration, profDir string) benchfmt.DetectCell {
	var stopCPU func()
	if profDir != "" {
		path := filepath.Join(profDir, fmt.Sprintf("cpu_g%d_w%d.pprof", g, w))
		if f, err := os.Create(path); err == nil {
			if err := pprof.StartCPUProfile(f); err == nil {
				stopCPU = func() { pprof.StopCPUProfile(); f.Close() }
			} else {
				f.Close()
			}
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, tot0 := cpuClasses()

	var agg core.RangeStats
	iters := 0
	start := time.Now()
	for time.Since(start) < minTime || iters == 0 {
		dets, st := core.DetectRangeStats(context.Background(), s, parts, refs, w)
		if len(dets) == 0 || dets[0] == nil {
			fatal(fmt.Errorf("cell g=%d w=%d produced no detections", g, w))
		}
		agg.Add(st)
		iters++
	}
	runtime.ReadMemStats(&ms1)
	gc1, tot1 := cpuClasses()
	if stopCPU != nil {
		stopCPU()
	}

	cell := benchfmt.DetectCell{
		Gomaxprocs:       g,
		Workers:          agg.Workers,
		Iters:            iters,
		Partitions:       len(parts),
		Rows:             agg.Rows / int64(iters),
		WallSeconds:      agg.Wall.Seconds(),
		PartitionsPerSec: agg.PartitionsPerSec(),
		Utilization:      agg.Utilization(),
		ScanSeconds:      agg.Scan.Seconds(),
		MergeSeconds:     agg.Merge.Seconds(),
		QueueWaitSeconds: agg.QueueWait.Seconds(),
		BarrierSeconds:   agg.Barrier.Seconds(),
	}
	if agg.Partitions > 0 {
		cell.AllocsPerPartition = float64(ms1.Mallocs-ms0.Mallocs) / float64(agg.Partitions)
	}
	if dTot := tot1 - tot0; dTot > 0 {
		cell.GCShare = (gc1 - gc0) / dTot
	}
	if cell.WallSeconds > 0 {
		cell.RowsPerSec = float64(agg.Rows) / cell.WallSeconds
	}
	return cell
}

// dumpContention writes the sweep-wide mutex/block profiles when their
// collectors were armed.
func dumpContention(dir string, mutexFrac, blockNS int, log *slog.Logger) {
	write := func(name, file string) {
		p := pprof.Lookup(name)
		if p == nil {
			return
		}
		f, err := os.Create(filepath.Join(dir, file))
		if err != nil {
			log.Warn("profile not written", "profile", name, "err", err)
			return
		}
		defer f.Close()
		if err := p.WriteTo(f, 0); err != nil {
			log.Warn("profile not written", "profile", name, "err", err)
			return
		}
		log.Info("profile written", "path", filepath.Join(dir, file))
	}
	if mutexFrac > 0 {
		write("mutex", "mutex.pprof")
	}
	if blockNS > 0 {
		write("block", "block.pprof")
	}
}

// parseList parses a comma-separated list of positive ints.
func parseList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad value %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpsbench:", err)
	os.Exit(1)
}
