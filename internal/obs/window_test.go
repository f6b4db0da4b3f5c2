package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source; all windowed-type boundary
// tests drive it explicitly so rotation is deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestWindowedCounterRotation(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedCounter(10*time.Second, time.Hour, clk.Now)
	if w.ring.Step() != 10*time.Second || w.Span() != time.Hour {
		t.Fatalf("geometry = %v/%v", w.ring.Step(), w.Span())
	}

	w.AddAt(w.ring.clock(), 5)
	if got := w.Total(FastWindow); got != 5 {
		t.Fatalf("fast total = %d, want 5", got)
	}
	if got := w.Total(SlowWindow); got != 5 {
		t.Fatalf("slow total = %d, want 5", got)
	}

	// 29 steps later the t0 bucket is still the oldest of the 30 the
	// fast window covers; one more step rotates it out exactly.
	clk.Advance(4*time.Minute + 50*time.Second)
	w.AddAt(w.ring.clock(), 2)
	if got := w.Total(FastWindow); got != 7 {
		t.Fatalf("fast total at edge = %d, want 7", got)
	}
	clk.Advance(10 * time.Second)
	if got := w.Total(FastWindow); got != 2 {
		t.Fatalf("fast total past edge = %d, want 2", got)
	}
	if got := w.Total(SlowWindow); got != 7 {
		t.Fatalf("slow total = %d, want 7", got)
	}

	// Aging past the full span empties the slow window too.
	clk.Advance(time.Hour)
	if got := w.Total(SlowWindow); got != 0 {
		t.Fatalf("slow total past span = %d, want 0", got)
	}

	// Ring reuse after wraparound only sees the fresh write.
	w.AddAt(w.ring.clock(), 3)
	if got := w.Total(SlowWindow); got != 3 {
		t.Fatalf("slow total after wraparound = %d, want 3", got)
	}

	// A write stamped before the ring advanced past its bucket is
	// dropped, not misfiled into a newer bucket.
	w.AddAt(clk.Now().Add(-2*time.Hour), 100)
	if got := w.Total(SlowWindow); got != 3 {
		t.Fatalf("slow total after stale write = %d, want 3", got)
	}
}

func TestWindowedHistogramRotation(t *testing.T) {
	clk := newFakeClock()
	bounds := []float64{0.001, 0.01, 0.1}
	w := NewWindowedHistogram(bounds, 10*time.Second, time.Hour, clk.Now)

	w.ObserveAt(w.ring.clock(), 0.0005)
	w.ObserveAt(w.ring.clock(), 0.05)
	fast := w.Merged(FastWindow)
	if fast.Count != 2 || fast.Sum != 0.0505 {
		t.Fatalf("fast merged = count %d sum %v", fast.Count, fast.Sum)
	}
	if got, want := fast.Counts[0], uint64(1); got != want {
		t.Fatalf("bucket0 = %d", got)
	}

	clk.Advance(FastWindow)
	if got := w.Merged(FastWindow).Count; got != 0 {
		t.Fatalf("fast count past edge = %d, want 0", got)
	}
	if got := w.Merged(SlowWindow).Count; got != 2 {
		t.Fatalf("slow count = %d, want 2", got)
	}

	clk.Advance(SlowWindow)
	if got := w.Merged(SlowWindow).Count; got != 0 {
		t.Fatalf("slow count past span = %d, want 0", got)
	}

	w.ObserveAt(w.ring.clock(), 0.2)
	reused := w.Merged(FastWindow)
	if reused.Count != 1 || reused.Counts[3] != 1 {
		t.Fatalf("after reuse: count %d overflow %d", reused.Count, reused.Counts[3])
	}
}

func TestWindowedHistogramQuantileDeterministic(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram(nil, 10*time.Second, time.Hour, clk.Now)
	for i := 0; i < 99; i++ {
		w.ObserveAt(w.ring.clock(), 0.0008) // bucket (0.0005, 0.001]
	}
	w.ObserveAt(w.ring.clock(), 0.05)
	s := w.Merged(FastWindow)
	if got := s.Quantile(0.99); got != 0.001 {
		t.Fatalf("p99 = %v, want 0.001", got)
	}
	// p50: rank 50 of 99 in bucket (0.0005, 0.001], linear interpolation.
	want := 0.0005 + (0.001-0.0005)*(50.0/99.0)
	if got := s.Quantile(0.50); got != want {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
}

func TestWindowSnapshotGoodCount(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram([]float64{0.001, 0.01, 0.1}, 10*time.Second, time.Hour, clk.Now)
	w.ObserveAt(w.ring.clock(), 0.0005)
	w.ObserveAt(w.ring.clock(), 0.005)
	w.ObserveAt(w.ring.clock(), 0.05)
	w.ObserveAt(w.ring.clock(), 5) // overflow
	s := w.Merged(FastWindow)

	// 0.002 is not a bucket bound: snaps up to 0.01.
	good, eff := s.GoodCount(0.002)
	if good != 2 || eff != 0.01 {
		t.Fatalf("GoodCount(0.002) = %d @ %v, want 2 @ 0.01", good, eff)
	}
	// Beyond the last bound: all finite buckets are good, overflow bad.
	good, eff = s.GoodCount(1000)
	if good != 3 || eff != 0.1 {
		t.Fatalf("GoodCount(1000) = %d @ %v, want 3 @ 0.1", good, eff)
	}
	if s.Quantile(0.5) == 0 {
		t.Fatalf("quantile on populated snapshot = 0")
	}

	empty := WindowSnapshot{}
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty snapshot quantile = %v", got)
	}
}

// TestWindowedConcurrentFixedTick hammers one slot from many goroutines
// while readers merge concurrently; with a pinned clock no observation
// can be dropped, so the final totals must be exact.
func TestWindowedConcurrentFixedTick(t *testing.T) {
	clk := newFakeClock()
	h := NewWindowedHistogram(nil, 10*time.Second, time.Hour, clk.Now)
	c := NewWindowedCounter(10*time.Second, time.Hour, clk.Now)

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Merged(FastWindow)
					c.Total(FastWindow)
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for i := 0; i < workers; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < perWorker; j++ {
				h.ObserveAt(h.ring.clock(), 0.001)
				c.AddAt(c.ring.clock(), 1)
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if got := h.Merged(FastWindow).Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := c.Total(FastWindow); got != workers*perWorker {
		t.Fatalf("counter total = %d, want %d", got, workers*perWorker)
	}
}

// TestWindowedConcurrentRotation drives a tiny ring with a racing clock
// so slots are claimed and recycled constantly; the invariant is no
// race-detector report and no overcounting past what was written.
func TestWindowedConcurrentRotation(t *testing.T) {
	var ticks atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		return base.Add(time.Duration(ticks.Add(1)) * 100 * time.Microsecond)
	}
	h := NewWindowedHistogram([]float64{0.001}, time.Millisecond, 10*time.Millisecond, clock)
	c := NewWindowedCounter(time.Millisecond, 10*time.Millisecond, clock)

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				h.ObserveAt(h.ring.clock(), 0.0005)
				c.AddAt(c.ring.clock(), 1)
				if j%64 == 0 {
					h.Merged(5 * time.Millisecond)
					c.Total(5 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	if got := h.Merged(h.Span()).Count; got > workers*perWorker {
		t.Fatalf("histogram overcounted: %d > %d", got, workers*perWorker)
	}
	if got := c.Total(c.Span()); got > workers*perWorker {
		t.Fatalf("counter overcounted: %d > %d", got, workers*perWorker)
	}
}

func TestWindowedRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	clk := newFakeClock()
	h := NewWindowedHistogram(nil, 10*time.Second, time.Hour, clk.Now)
	reg.RegisterWindowHistogram("test_window_seconds", "rolling latency", h)
	c := NewWindowedCounter(10*time.Second, time.Hour, clk.Now)
	reg.RegisterWindowCounter("test_window_errors", "rolling errors", c)

	h.ObserveAt(h.ring.clock(), 0.002)
	c.AddAt(c.ring.clock(), 4)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_window_seconds_bucket{window="5m",le="0.0001"} 0`,
		`test_window_seconds_count{window="5m"} 1`,
		`test_window_seconds_count{window="1h"} 1`,
		`test_window_errors{window="5m"} 4`,
		"# TYPE test_window_errors gauge",
		"# TYPE test_window_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Histograms[`test_window_seconds{window="5m"}`].Count; got != 1 {
		t.Fatalf("snapshot fast count = %d", got)
	}
	if got := snap.Gauges[`test_window_errors{window="1h"}`]; got != 4 {
		t.Fatalf("snapshot slow errors = %v", got)
	}

	// Adoption is idempotent: a second registration returns the first.
	h2 := NewWindowedHistogram(nil, 10*time.Second, time.Hour, clk.Now)
	if got := reg.RegisterWindowHistogram("test_window_seconds", "dup", h2); got != h {
		t.Fatalf("adoption did not return the existing histogram")
	}
}
