package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"dpsadopt/internal/obs"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "bench.pass", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "a.x", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "b.y", Start: ms(30), End: ms(70)},  // overlaps span 2 by 20ms
		{ID: 4, Parent: 1, Name: "b.z", Start: ms(90), End: ms(120)}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Name: "c.w", Start: ms(20), End: ms(30)},
		{ID: 6, Parent: 0, Name: "bench.replay", Start: ms(200), End: ms(300)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: ms(100) - (ms(60) + ms(10)), // children cover [10,70) and [90,100)
		2: ms(30),
		3: ms(40),
		4: ms(30),
		5: ms(10),
		6: ms(100),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestLedgerClosesOnToyTrace(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "bench.pass", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "measure.runday", Start: 0, End: ms(60)},
		{ID: 3, Parent: 1, Name: "analysis.run", Start: ms(60), End: ms(90)},
		{ID: 4, Parent: 3, Name: "core.detectrange", Start: ms(65), End: ms(70)},
		{ID: 5, Parent: 0, Name: "bench.replay", Start: ms(200), End: ms(800)},
		{ID: 6, Parent: 5, Name: "store.append", Start: ms(200), End: ms(700)}, // another root: must not count
	}
	led := buildLedger(spans, 1)
	want := map[string]time.Duration{"measure": ms(60), "analysis": ms(25), "core": ms(5), "bench": ms(10)}
	var sum time.Duration
	for layer, d := range led.Layers {
		sum += d
		if want[layer] != d {
			t.Errorf("layer %s self = %v, want %v", layer, d, want[layer])
		}
	}
	if sum != led.Wall || led.Wall != ms(100) {
		t.Errorf("layer self times sum to %v, wall is %v, want both 100ms", sum, led.Wall)
	}
	if u := led.unattributed(); math.Abs(u-0.10) > 1e-9 {
		t.Errorf("unattributed = %v, want 0.10 (the root's own 10ms)", u)
	}
}

func TestHighPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: the function must sort
		}
		return out
	}
	for _, tc := range []struct {
		n       int
		val     float64
		pct     float64
		comment string
	}{
		{10, 5.5, 50, "too few samples for any tail: median"},
		{11, 1, 100.0 / 11, "exactly ten beyond the smallest"},
		{60, 50, 100 * 50.0 / 60, "60 freshness samples support p83"},
		{1000, 990, 99, "a thousand samples support p99"},
	} {
		val, pct := highPercentile(seq(tc.n))
		if val != tc.val || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d (%s): got value %v at p%.2f, want %v at p%.2f", tc.n, tc.comment, val, pct, tc.val, tc.pct)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestMetricsAtNominalSpeed: a run reports the lower quartile of a
// timing's samples, scaled by how the yardstick read against its nominal
// time over the same stretch.
func TestMetricsAtNominalSpeed(t *testing.T) {
	sm := samples{
		Setup:       []float64{3, 1, 2},
		SetupYard:   []float64{yardNominal, yardNominal, yardNominal, 9},
		Wall:        []float64{8, 4, 6, 2, 10, 12, 14, 16}, // lower quartile (nearest rank) = 4
		Write:       []float64{1},
		Read:        []float64{5, 3},
		Yard:        []float64{2 * yardNominal, 2 * yardNominal, 3 * yardNominal, 5 * yardNominal}, // machine at half speed
		AllocMB:     []float64{10, 30, 20},
		BytesPerRow: []float64{7},
	}
	want := map[string]float64{"setup_s": 2, "wall_s": 2, "write_s": 0.5, "read_s": 1.5, "alloc_mb": 20, "bytes_per_row": 7}
	got := sm.metrics()
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	if len(got) != len(endToEndDefs) {
		t.Errorf("%d metrics reduced, catalogue has %d end-to-end metrics", len(got), len(endToEndDefs))
	}
}

func TestChunkSums(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7}
	if got := chunkSums(vals, 3); len(got) != 2 || got[0] != 6 || got[1] != 15 {
		t.Errorf("chunkSums(1..7, 3) = %v, want [6 15] (the short tail dropped)", got)
	}
}

func TestVerdict(t *testing.T) {
	lowerIs := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higherIs := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	tight := func(m float64) series { return newSeries("s", []float64{m * 0.99, m, m * 1.01}) }
	wide := func(m float64) series { return newSeries("s", []float64{m * 0.5, m, m * 1.5, m * 0.6, m * 1.4}) }
	for _, tc := range []struct {
		d    metricDef
		a, b series
		want string
	}{
		{lowerIs, tight(1), tight(1.05), "same"},
		{lowerIs, tight(1), tight(1.2), "worse"},
		{lowerIs, tight(1), tight(0.8), "better"},
		{higherIs, tight(1), tight(0.8), "worse"},
		{higherIs, tight(1), tight(1.2), "better"},
		{lowerIs, wide(1), wide(1.2), "unresolved"},
		{lowerIs, wide(1), wide(10), "worse"}, // every run of b worse than every run of a
		{higherIs, wide(1), wide(10), "better"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %s: %v → %v = %s, want %s", tc.d.Name, tc.d.Better, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogMatchesBenchmarkJSON: every workload and metric name the
// program emits is declared in BENCHMARK.json and the other way round.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(catalogDoc())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with `bench catalog`\n got %s\nwant %s", got, want)
	}
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range doc.Workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	for _, m := range doc.PerLayer {
		check("per-layer metric", m.Name)
	}
}

// TestSmokeWorkloads runs every workload at 1:100000 x 2 days, untraced
// and traced: outputs must match their digests and every catalogued
// metric must be reported.
func TestSmokeWorkloads(t *testing.T) {
	obs.SetLogger(obs.NewLogger(io.Discard, slog.LevelError, false))
	golden, err := loadGolden(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, wd := range workloadDefs {
		for _, trace := range []bool{false, true} {
			w, err := newWorkload(wd.Name, smokeSizes(), golden)
			if err != nil {
				t.Fatal(err)
			}
			out := t.TempDir()
			e, err := newEnv(out, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runOne(w, wd.Name, e, trace, out, io.Discard)
			e.cleanup()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wd.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wd.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEndDefs
			if trace {
				defs = perLayerDefs
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, catalogue has %d", wd.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wd.Name, trace, d.Name)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wd.Name, d.Name, v.Value)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", wd.Name, d.Name, v.Value)
				}
			}
		}
	}
}
