package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeConcurrent hammers a counter and a gauge from many
// goroutines; run under -race this also proves the wait-free paths.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	g := r.Gauge("test_level", "t")
	const workers, per = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				g.Add(0.5)
				g.Add(-0.25)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	want := float64(workers*per) * 0.25
	if got := g.Value(); math.Abs(got-want) > 1e-6 {
		t.Errorf("gauge = %v, want %v", got, want)
	}
	c.Add(-5) // negative deltas must not move a counter
	if got := c.Value(); got != workers*per {
		t.Errorf("counter after negative Add = %d, want %d", got, workers*per)
	}
}

// TestHistogramConcurrent checks total counts and sums survive concurrent
// observation.
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{0.25, 0.5, 0.75, 1})
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
	wantSum := float64(workers) * per * 0.495 // mean of {0,.01,...,.99}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-3 {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
	var bucketTotal uint64
	for _, c := range h.BucketCounts() {
		bucketTotal += c
	}
	if bucketTotal != h.Count() {
		t.Errorf("bucket total %d != count %d", bucketTotal, h.Count())
	}
}

// TestQuantileAccuracy bounds the estimation error: with uniform
// observations the interpolated quantile must land within one bucket
// width of the true value.
func TestQuantileAccuracy(t *testing.T) {
	bounds := make([]float64, 20) // 0.05, 0.10, ... 1.00
	for i := range bounds {
		bounds[i] = float64(i+1) * 0.05
	}
	h := newHistogram(bounds)
	const n = 100000
	for i := 0; i < n; i++ {
		h.Observe(float64(i) / n) // uniform on [0,1)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 0.5}, {0.9, 0.9}, {0.99, 0.99}, {0.1, 0.1},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("Quantile(%v) = %v, want %v ± 0.05", tc.q, got, tc.want)
		}
	}
	if got := newHistogram(nil).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// Observations beyond the last bound saturate at it.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 2 {
		t.Errorf("overflow quantile = %v, want 2", got)
	}
}

func TestRegistryIdempotentAndPanics(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "ignored")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	if _, ok := r.Lookup("x_total"); !ok {
		t.Error("Lookup missed registered metric")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "wrong kind")
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("rcode_total", "per rcode", "rcode")
	v.With("NOERROR").Add(3)
	v.With("NXDOMAIN").Add(1)
	if got := v.With("NOERROR").Value(); got != 3 {
		t.Errorf("NOERROR = %v", got)
	}
	hv := r.HistogramVec("stage_seconds", "per stage", "stage", []float64{1, 2})
	hv.With("resolution").Observe(0.5)
	if got := hv.With("resolution").Count(); got != 1 {
		t.Errorf("stage count = %d", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`rcode_total{rcode="NOERROR"} 3`,
		`rcode_total{rcode="NXDOMAIN"} 1`,
		`stage_seconds_bucket{stage="resolution",le="1"} 1`,
		`stage_seconds_count{stage="resolution"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("q_total", "").Add(42)
	r.Gauge("inflight", "").Set(7)
	h := r.Histogram("lat_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	r.GaugeVec("byrcode_total", "", "rcode").With("NOERROR").Add(1)
	snap := r.Snapshot()
	if snap.Counter("q_total") != 42 {
		t.Errorf("snapshot counter = %d", snap.Counter("q_total"))
	}
	if snap.Gauges["inflight"] != 7 {
		t.Errorf("snapshot gauge = %v", snap.Gauges["inflight"])
	}
	if hs := snap.Histogram("lat_seconds"); hs.Count != 2 || hs.Sum != 0.55 {
		t.Errorf("snapshot histogram = %+v", hs)
	}
	if snap.Gauges[`byrcode_total{rcode="NOERROR"}`] != 1 {
		t.Errorf("vec child missing from snapshot: %v", snap.Gauges)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Counter("q_total") != 42 {
		t.Error("JSON round-trip lost counter value")
	}
}

func TestLoggerQuiet(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo, true)
	l.Info("visible", "k", 1)
	SetQuiet()
	defer level.Set(slog.LevelInfo)
	l.Info("suppressed")
	l.Warn("warned")
	out := buf.String()
	if !strings.Contains(out, "visible") || !strings.Contains(out, "warned") {
		t.Errorf("expected visible+warned in %q", out)
	}
	if strings.Contains(out, "suppressed") {
		t.Errorf("quiet mode leaked info line: %q", out)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(out, "\n", 2)[0]), &obj); err != nil {
		t.Errorf("JSON handler emitted non-JSON line: %v", err)
	}
}
