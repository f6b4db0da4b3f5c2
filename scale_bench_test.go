package dpsadopt

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"dpsadopt/internal/api"
	"dpsadopt/internal/benchfmt"
	"dpsadopt/internal/core"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// The scale benchmarks are the out-of-core evidence the README and
// DESIGN.md §14 quote: BenchmarkScaleLoad compares the full-load index
// build (store.Load + api.NewIndex) against the streaming build
// (store.Open + api.NewIndexReader) over the same dataset files at a
// sweep of world scales; BenchmarkScaleDetect compares the raw
// detection pass (core.DetectRangeStats resident vs core.DetectRangeSource
// streaming) without the index fold. Whichever runs last persists both
// sections to results/BENCH_scale.json (schema scale/v1), the artifact
// scripts/benchdiff.sh tracks. Acceptance at the largest scale (the
// smallest divisor): streaming peak heap <= 25% of full-load and
// throughput ratio >= 0.8.
//
// Each cell runs in a fresh subprocess (the test binary re-execs
// itself into TestScaleCellHelper): peak-heap sampling is sensitive to
// GC pacing history, so back-to-back measurements in one process drift
// by integer factors, while a pristine process gives repeatable
// readings. The parent keeps dataset generation and the ratio math.
var scaleBenchSweep = []struct{ scale, days int }{
	{50_000, 16},
	{16_000, 16},
	{6_000, 16},
}

var scaleBench struct {
	mu     sync.Mutex
	data   map[int]scaleFixture // keyed by scale divisor
	cells  []benchfmt.ScaleCell
	detect []benchfmt.ScaleCell
}

type scaleFixture struct {
	path      string
	parts     int
	rows      int64
	fileBytes int64
}

// scaleCellResult is what the helper subprocess reports back on stdout.
type scaleCellResult struct {
	Stream   benchfmt.ScalePath `json:"stream"`
	Full     benchfmt.ScalePath `json:"full"`
	ParityOK bool               `json:"parity_ok"`
}

const scaleCellMarker = "SCALECELL:"

// scaleDataset measures a world at the given scale into a saved dataset
// file, once per scale per process (both benchmarks sweep the same
// files).
func scaleDataset(b *testing.B, scale, days int) scaleFixture {
	b.Helper()
	scaleBench.mu.Lock()
	defer scaleBench.mu.Unlock()
	if fx, ok := scaleBench.data[scale]; ok {
		return fx
	}
	w, err := worldsim.New(worldsim.DefaultConfig(scale))
	if err != nil {
		b.Fatal(err)
	}
	s := store.New()
	p := measure.New(w, s, measure.Config{Mode: measure.ModeDirect, Workers: 4})
	for d := simtime.Day(0); d < simtime.Day(days); d++ {
		if err := p.RunDay(context.Background(), d); err != nil {
			b.Fatal(err)
		}
	}
	dir, err := os.MkdirTemp("", "dpsadopt-scale")
	if err != nil {
		b.Fatal(err)
	}
	fx := scaleFixture{path: filepath.Join(dir, fmt.Sprintf("scale%d.dpsa", scale))}
	if err := s.Save(fx.path); err != nil {
		b.Fatal(err)
	}
	parts := core.Partitions(s)
	fx.parts = len(parts)
	for _, pt := range parts {
		if batch, ok := s.RowBatch(pt.Source, pt.Day); ok {
			fx.rows += int64(batch.Rows())
		}
	}
	fi, err := os.Stat(fx.path)
	if err != nil {
		b.Fatal(err)
	}
	fx.fileBytes = fi.Size()
	if scaleBench.data == nil {
		scaleBench.data = map[int]scaleFixture{}
	}
	scaleBench.data[scale] = fx
	return fx
}

// runScaleCell re-execs the test binary into TestScaleCellHelper with
// the dataset path and mode, and parses the cell it prints.
func runScaleCell(b *testing.B, fx scaleFixture, mode string) scaleCellResult {
	b.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestScaleCellHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"DPSADOPT_SCALE_CELL=1",
		"DPSADOPT_SCALE_PATH="+fx.path,
		"DPSADOPT_SCALE_MODE="+mode,
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		b.Fatalf("scale cell subprocess (%s): %v\n%s", mode, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, scaleCellMarker) {
			continue
		}
		var res scaleCellResult
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, scaleCellMarker)), &res); err != nil {
			b.Fatalf("scale cell subprocess (%s): bad result line %q: %v", mode, line, err)
		}
		return res
	}
	b.Fatalf("scale cell subprocess (%s) produced no %s line:\n%s", mode, scaleCellMarker, out)
	return scaleCellResult{}
}

// TestScaleCellHelper is not a test: it is the measurement half of the
// scale benchmarks, run in a pristine subprocess so GC pacing history
// from other benchmarks cannot distort the peak-heap sampling. It
// measures the streaming path first (the full path's larger residual
// heap must not inflate the streaming RSS reading) and prints one
// SCALECELL: line.
func TestScaleCellHelper(t *testing.T) {
	if os.Getenv("DPSADOPT_SCALE_CELL") != "1" {
		t.Skip("subprocess helper for BenchmarkScaleLoad/BenchmarkScaleDetect")
	}
	path := os.Getenv("DPSADOPT_SCALE_PATH")
	refs := core.MustGroundTruth()
	var res scaleCellResult
	var err error
	switch mode := os.Getenv("DPSADOPT_SCALE_MODE"); mode {
	case "index":
		var streamIdx, fullIdx *api.Index
		res.Stream, err = benchfmt.MeasureBuild(func() error {
			r, err := store.Open(path)
			if err != nil {
				return err
			}
			defer r.Close()
			r.SetCachePartitions(1) // single-pass build: a deeper cache never hits
			streamIdx, err = api.NewIndexReader(r, refs)
			return err
		})
		if err != nil {
			t.Fatalf("streaming build: %v", err)
		}
		res.Full, err = benchfmt.MeasureBuild(func() error {
			full, err := store.Load(path)
			if err != nil {
				return err
			}
			fullIdx = api.NewIndex(full, refs)
			return nil
		})
		if err != nil {
			t.Fatalf("full build: %v", err)
		}
		res.ParityOK = sameIndexViewBench(streamIdx, fullIdx)
	case "detect":
		var streamDets, fullDets []*core.DayDetections
		res.Stream, err = benchfmt.MeasureBuild(func() error {
			r, err := store.Open(path)
			if err != nil {
				return err
			}
			defer r.Close()
			r.SetCachePartitions(1)
			var failed []core.PartitionFailure
			streamDets, _, failed = core.DetectRangeSource(context.Background(), r, core.ReaderPartitions(r), refs, 0)
			if len(failed) > 0 {
				return fmt.Errorf("%d partitions failed streaming detection", len(failed))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("streaming detection: %v", err)
		}
		res.Full, err = benchfmt.MeasureBuild(func() error {
			s, err := store.Load(path)
			if err != nil {
				return err
			}
			fullDets, _ = core.DetectRangeStats(context.Background(), s, core.Partitions(s), refs, 0)
			return nil
		})
		if err != nil {
			t.Fatalf("resident detection: %v", err)
		}
		res.ParityOK = sameDetections(refs, fullDets, streamDets)
	default:
		t.Fatalf("unknown DPSADOPT_SCALE_MODE %q", mode)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(scaleCellMarker + string(raw))
}

func BenchmarkScaleLoad(b *testing.B) {
	runScaleSweepBench(b, "index", &scaleBench.cells)
}

func BenchmarkScaleDetect(b *testing.B) {
	runScaleSweepBench(b, "detect", &scaleBench.detect)
}

// runScaleSweepBench drives one sub-benchmark per swept scale, each
// iteration measuring one fresh-subprocess cell, and persists the doc.
func runScaleSweepBench(b *testing.B, mode string, cells *[]benchfmt.ScaleCell) {
	for _, sw := range scaleBenchSweep {
		b.Run(fmt.Sprintf("scale=%d", sw.scale), func(b *testing.B) {
			fx := scaleDataset(b, sw.scale, sw.days)
			var cell benchfmt.ScaleCell
			for i := 0; i < b.N; i++ {
				res := runScaleCell(b, fx, mode)
				if !res.ParityOK {
					b.Fatalf("scale 1:%d (%s): streaming result diverged from in-memory result", sw.scale, mode)
				}
				cell = benchfmt.ScaleCell{
					Scale: sw.scale, Days: sw.days,
					Partitions: fx.parts, Rows: fx.rows, FileBytes: fx.fileBytes,
					Stream: res.Stream, Full: res.Full, ParityOK: true,
				}
				if cell.Stream.BuildSeconds > 0 {
					cell.Stream.PartitionsPerSec = float64(cell.Partitions) / cell.Stream.BuildSeconds
				}
				if cell.Full.BuildSeconds > 0 {
					cell.Full.PartitionsPerSec = float64(cell.Partitions) / cell.Full.BuildSeconds
				}
				cell.FillRatios()
			}
			b.ReportMetric(cell.MemRatio, "mem_ratio")
			b.ReportMetric(cell.ThroughputRatio, "throughput_ratio")
			upsertScaleCell(cells, cell)
		})
	}
	writeScaleBench(b)
}

// upsertScaleCell keeps one cell per scale (the harness reruns closures
// while calibrating b.N; the final run wins).
func upsertScaleCell(cells *[]benchfmt.ScaleCell, cell benchfmt.ScaleCell) {
	for i := range *cells {
		if (*cells)[i].Scale == cell.Scale {
			(*cells)[i] = cell
			return
		}
	}
	*cells = append(*cells, cell)
}

// sameIndexViewBench deep-compares the two indexes' served views (the
// same structural check cmd/dpsbench's sweep applies).
func sameIndexViewBench(a, b *api.Index) bool {
	if !slices.Equal(a.Days(), b.Days()) {
		return false
	}
	for _, d := range a.Days() {
		ai, aok := a.Day(d)
		bi, bok := b.Day(d)
		if aok != bok || !reflect.DeepEqual(ai, bi) {
			return false
		}
	}
	ad, bd := a.Domains(), b.Domains()
	if !slices.Equal(ad, bd) {
		return false
	}
	stride := 1
	if len(ad) > 2000 {
		stride = len(ad) / 2000
	}
	for i := 0; i < len(ad); i += stride {
		ah, aok := a.Domain(ad[i])
		bh, bok := b.Domain(ad[i])
		if aok != bok || !reflect.DeepEqual(ah, bh) {
			return false
		}
	}
	return true
}

// sameDetections compares two detection passes through the public
// counting surface: per-partition measured/row counts, per-provider
// distinct-domain counts, and the any-provider union.
func sameDetections(refs *core.References, want, got []*core.DayDetections) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		a, b := want[i], got[i]
		if (a == nil) != (b == nil) {
			return false
		}
		if a == nil {
			continue
		}
		if a.Source != b.Source || a.Day != b.Day ||
			a.DomainsMeasured != b.DomainsMeasured || a.Rows != b.Rows ||
			a.CountAny() != b.CountAny() {
			return false
		}
		for p := 0; p < refs.NumProviders(); p++ {
			if a.Count(p) != b.Count(p) {
				return false
			}
		}
	}
	return true
}

// writeScaleBench persists both sweeps; whichever benchmark runs last
// writes the file with everything collected so far.
func writeScaleBench(b *testing.B) {
	b.Helper()
	if len(scaleBench.cells) == 0 && len(scaleBench.detect) == 0 {
		return
	}
	doc := &benchfmt.ScaleDoc{
		Bench:     "scale",
		Schema:    benchfmt.ScaleSchema,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Source:    "go test -bench",
		Cells:     scaleBench.cells,
		Detect:    scaleBench.detect,
	}
	if err := doc.Write("results/BENCH_scale.json"); err != nil {
		b.Logf("BENCH_scale.json not written: %v", err)
		return
	}
	if n := len(doc.Cells); n > 0 {
		last := doc.Cells[n-1]
		b.Logf("wrote results/BENCH_scale.json (largest scale 1:%d: mem ratio %.3f, throughput ratio %.2f, parity %v)",
			last.Scale, last.MemRatio, last.ThroughputRatio, last.ParityOK)
	}
}
