package main

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dpsadopt/internal/analysis"
	"dpsadopt/internal/api"
	"dpsadopt/internal/core"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// scanWorkload reads a saved dataset end to end through the out-of-core
// path (store.Open → DetectRangeSource → NewIndexReader → Aggregator
// fold → growth, flux and peak figures), then loads and re-saves it.
type scanWorkload struct {
	size   fixtureSize
	refs   *core.References
	fx     *fixture
	slices [][]store.PartitionKey // the fixture's partitions in sliceDays-day groups
}

// sliceDays is how many days one re-saved slice holds.
const sliceDays = 5

// scanPass is what one pass measured. A pass is one cycle per slice: the
// whole dataset scanned, then that slice re-saved. A dataset is read far
// more often than it is rewritten, and re-saving all ~57 MB after every
// scan kept the disk writing at ~200 MB/s, which this box answers by
// slowing everything down for minutes.
type scanPass struct {
	scans, saves []float64 // one scan and one slice re-save per cycle, seconds
	wallS        float64   // the whole pass
	allocMB      float64
	info         store.ReaderInfo
	detect       core.RangeStats
	failed       int
	readDigest   string
	resaved      []string       // the slice files this pass wrote
	loaded       []*store.Store // the slices as loaded, for the deep check
	resavedBytes int64
	indexRows    int64
}

func (w *scanWorkload) setup(e *env) error {
	if w.fx != nil {
		os.RemoveAll(filepath.Dir(w.fx.full)) // the previous set-up's fixture
	}
	dir, err := e.mkdir("fixture")
	if err != nil {
		return err
	}
	if w.fx, err = buildFixture(e.seed, w.size, dir); err != nil {
		return err
	}
	parts, err := store.Directory(w.fx.full)
	if err != nil {
		return err
	}
	w.slices = make([][]store.PartitionKey, (w.size.Days+sliceDays-1)/sliceDays)
	for _, pi := range parts {
		i := int(pi.Day-w.fx.start) / sliceDays
		w.slices[i] = append(w.slices[i], pi.Key())
	}
	return nil
}

// scan is one read pass over the fixture.
func (w *scanWorkload) scan(rec *Recorder, root *ref, p *scanPass) ([]*core.DayDetections, error) {
	ctx := context.Background()
	// Fresh references per scan, as a process reading a dataset has:
	// References keeps a matcher (and with it the dictionary) for every
	// dictionary it has seen, so a shared one would grow scan by scan.
	refs, err := core.GroundTruth()
	if err != nil {
		return nil, err
	}
	var rd *store.Reader
	rec.do(root, "store.open", func() { rd, err = store.Open(w.fx.full) })
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	p.info = rd.Info()
	parts := core.ReaderPartitions(rd)
	var dets []*core.DayDetections
	var fails []core.PartitionFailure
	var st core.RangeStats
	rec.do(root, "core.detectrange", func() {
		dets, st, fails = core.DetectRangeSource(ctx, rd, parts, refs, detectWorkers)
	})
	p.detect.Add(st)
	p.failed += len(fails)
	var idx *api.Index
	rec.do(root, "api.index_build", func() { idx, err = api.NewIndexReader(rd, refs) })
	if err != nil {
		return nil, err
	}
	p.indexRows += idx.DetectStats().Rows
	agg := analysis.NewAggregator(refs, nil, worldsim.GTLDs())
	rec.do(root, "analysis.add_detections", func() {
		for _, det := range dets {
			if det == nil {
				continue
			}
			if err = agg.AddDetections(det); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	window := simtime.Range{Start: p.info.FirstDay, End: p.info.LastDay + 1}
	rec.do(root, "analysis.growth", func() { agg.Growth(worldsim.GTLDs()) })
	rec.do(root, "analysis.flux", func() {
		for pr := range refs.Providers {
			agg.Flux(pr, window, 14)
		}
	})
	rec.do(root, "analysis.peaks", func() {
		for pr := range refs.Providers {
			agg.OnDemandPeaks(pr, 3)
		}
	})
	return dets, nil
}

func (w *scanWorkload) run(e *env, rec *Recorder, root *ref) (scanPass, error) {
	var p scanPass
	// Each slice is saved over the file the previous pass wrote. (One
	// ~100 MB Store.Save per pass measured this box's thin-provisioned
	// disk, not the codec: the same save took 0.2 s or 1.5 s depending on
	// whether its blocks had been provisioned before.)
	dir := filepath.Join(filepath.Dir(w.fx.full), "resave")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, err
	}
	c0 := readClock()
	var dets []*core.DayDetections
	for i, keys := range w.slices {
		t0 := time.Now()
		var err error
		if dets, err = w.scan(rec, root, &p); err != nil {
			return p, err
		}
		t1 := time.Now()
		var sl *store.Store
		rec.do(root, "store.load", func() { sl, err = store.LoadPartitions(w.fx.full, keys) })
		if err != nil {
			return p, err
		}
		out := filepath.Join(dir, fmt.Sprintf("slice%d.dpsa", i))
		rec.do(root, "store.save", func() { err = sl.Save(out) })
		if err != nil {
			return p, err
		}
		p.scans = append(p.scans, t1.Sub(t0).Seconds())
		p.saves = append(p.saves, time.Since(t1).Seconds())
		p.loaded = append(p.loaded, sl)
		p.resaved = append(p.resaved, out)
		p.resavedBytes += fileSize(out)
	}
	c1 := readClock()

	p.wallS = c1.t.Sub(c0.t).Seconds()
	p.allocMB = c1.allocMBSince(c0)
	p.readDigest = detectionsDigest(dets)
	return p, nil
}

// check asserts what the pass must have produced. The load-path and
// re-saved-file digests cost a full detection pass each, so only a run's
// first pass pays for them (deep).
func (w *scanWorkload) check(p scanPass, t *tally, deep bool) error {
	t.add(p.info.Partitions*len(w.slices), p.failed)
	if !deep {
		return nil
	}
	ctx := context.Background()
	var viaLoad, viaResaved []*core.DayDetections
	for i, sl := range p.loaded {
		dets, _ := core.DetectRangeStats(ctx, sl, core.Partitions(sl), w.refs, detectWorkers)
		viaLoad = append(viaLoad, dets...)
		rd, err := store.Open(p.resaved[i])
		if err != nil {
			return err
		}
		dets, _, fails := core.DetectRangeSource(ctx, rd, core.ReaderPartitions(rd), w.refs, detectWorkers)
		rd.Close()
		t.add(len(dets), len(fails))
		viaResaved = append(viaResaved, dets...)
	}
	t.digest("dataset_scan Reader path vs LoadPartitions path", p.readDigest, detectionsDigest(viaLoad))
	t.digest("dataset_scan re-saved slices vs original", detectionsDigest(viaResaved), p.readDigest)
	return nil
}

func (w *scanWorkload) pass(e *env, t *tally) (e2e, error) {
	p, err := w.run(e, nil, nil)
	if err != nil {
		return e2e{}, err
	}
	if err := w.check(p, t, t.attempted == 0); err != nil {
		return e2e{}, err
	}
	cycles := make([]float64, len(p.scans))
	for i := range cycles {
		cycles[i] = p.scans[i] + p.saves[i]
	}
	return e2e{
		wall: cycles, write: p.saves, read: p.scans, allocMB: p.allocMB,
		bytesPerRow: ratio(float64(p.info.FileBytes), float64(p.info.Rows)),
	}, nil
}

func (w *scanWorkload) traced(e *env, rec *Recorder, t *tally) (map[string]float64, error) {
	m := make(map[string]float64)
	// A pass's re-save sometimes waits on the disk, so one untraced and
	// one traced pass do not compare fairly: run three of each,
	// alternating, and keep the median pass of each kind.
	const reps = 3
	type tracedPass struct {
		scanPass
		root   *ref
		c0, c1 clock
		od     obsDelta
	}
	var wholes []scanPass
	var traceds []tracedPass
	// The first passes over a fresh fixture are slower (cold page cache,
	// first write of the re-saved file); one discarded pass absorbs that,
	// and alternating the two kinds spreads what is left over both.
	if _, err := w.run(e, nil, nil); err != nil {
		return nil, err
	}
	for i := 0; i < reps; i++ {
		p, err := w.run(e, nil, nil)
		if err != nil {
			return nil, err
		}
		if err := w.check(p, t, i == 0); err != nil {
			return nil, err
		}
		p.loaded = nil
		wholes = append(wholes, p)

		tp := tracedPass{c0: readClock(), root: rec.start(nil, "bench.pass")}
		before := obs.Default().Snapshot()
		tp.scanPass, err = w.run(e, rec, tp.root)
		tp.root.end()
		if err != nil {
			return nil, err
		}
		tp.c1 = readClock()
		tp.od = obsDelta{before, obs.Default().Snapshot()}
		if err := w.check(tp.scanPass, t, false); err != nil {
			return nil, err
		}
		tp.loaded = nil
		t.digest("dataset_scan traced vs untraced", tp.readDigest, p.readDigest)
		traceds = append(traceds, tp)
	}
	slices.SortFunc(wholes, func(a, b scanPass) int { return cmp.Compare(a.wallS, b.wallS) })
	slices.SortFunc(traceds, func(a, b tracedPass) int { return cmp.Compare(a.wallS, b.wallS) })
	whole, tr := wholes[reps/2], traceds[reps/2]
	root, od, c0, c1 := tr.root, tr.od, tr.c0, tr.c1

	// Stand-alone replay: acquire (pread + CRC + decode, or LRU hit) and
	// release every partition once, single-threaded.
	rp := rec.start(nil, "bench.replay")
	rd, err := store.Open(w.fx.full)
	if err != nil {
		return nil, err
	}
	var acquire time.Duration
	var rows int
	for _, k := range rd.Keys() {
		t0 := time.Now()
		sp := rec.start(rp, "store.acquire")
		batch, release, err := rd.AcquireBatch(k.Source, k.Day)
		sp.end()
		acquire += time.Since(t0)
		if err != nil {
			rd.Close()
			return nil, fmt.Errorf("replay acquire %s: %w", k, err)
		}
		rows += batch.Rows()
		release()
	}
	rd.Close()
	rp.end()

	spans := spanSet(rec.snapshot()).under(root.id)
	led := buildLedger(spans, root.id)
	m["trace.overhead_frac"] = tr.wallS/whole.wallS - 1
	m["experiment.unattributed_frac"] = led.unattributed()
	for layer, d := range led.Layers {
		m[layer+".self_s"] = d.Seconds()
	}
	// Per scan: a pass makes one per slice.
	n := float64(len(w.slices))
	parts := float64(tr.info.Partitions)
	m["store.open_ms"] = spans.total("store.open").Seconds() * 1e3 / n
	m["store.acquire_ms_per_partition"] = acquire.Seconds() * 1e3 / parts
	m["store.decode_rows_per_s"] = ratio(float64(rows), acquire.Seconds())
	m["store.bytes_read_mb"] = od.counter("store_reader_bytes_read_total") / (1 << 20) / n
	hits, decodes := od.counter("store_reader_cache_hits_total"), od.counter("store_reader_partitions_decoded_total")
	m["store.cache_hit_frac"] = ratio(hits, hits+decodes)
	m["store.crc_failures"] = od.counter("store_crc_failures_total")
	m["store.load_s"] = spans.total("store.load").Seconds()
	m["store.save_s"] = spans.total("store.save").Seconds()
	m["store.save_mb_per_s"] = ratio(float64(tr.resavedBytes)/(1<<20), m["store.save_s"])

	m["core.detect_rows_per_s"] = ratio(float64(tr.detect.Rows), tr.detect.Busy().Seconds())
	m["core.scan_s"] = tr.detect.Scan.Seconds() / n
	m["core.merge_s"] = tr.detect.Merge.Seconds() / n
	m["core.barrier_s"] = tr.detect.Barrier.Seconds() / n
	m["core.queue_wait_s"] = tr.detect.QueueWait.Seconds() / n
	m["core.utilization"] = tr.detect.Utilization()
	m["core.partitions_failed"] = float64(tr.failed)

	m["analysis.add_detections_s"] = spans.total("analysis.add_detections").Seconds() / n
	m["analysis.growth_ms"] = spans.total("analysis.growth").Seconds() * 1e3 / n
	m["analysis.flux_ms"] = spans.total("analysis.flux").Seconds() * 1e3 / n
	m["analysis.peaks_ms"] = spans.total("analysis.peaks").Seconds() * 1e3 / n

	m["api.index_build_s"] = spans.total("api.index_build").Seconds() / n
	m["api.index_build_rows_per_s"] = ratio(float64(tr.indexRows)/n, m["api.index_build_s"])
	procMetrics(m, c0, c1)
	return m, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
