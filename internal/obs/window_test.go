package obs

import (
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
	w := new(WindowedCounter)

	w.AddAt(clk.Now(), 5)
	if got := w.TotalAt(clk.Now(), FastWindow); got != 5 {
		t.Fatalf("fast total = %d, want 5", got)
	}
	if got := w.TotalAt(clk.Now(), SlowWindow); got != 5 {
		t.Fatalf("slow total = %d, want 5", got)
	}

	// 29 steps later the t0 bucket is still the oldest of the 30 the
	// fast window covers; one more step rotates it out exactly.
	clk.Advance(4*time.Minute + 50*time.Second)
	w.AddAt(clk.Now(), 2)
	if got := w.TotalAt(clk.Now(), FastWindow); got != 7 {
		t.Fatalf("fast total at edge = %d, want 7", got)
	}
	clk.Advance(10 * time.Second)
	if got := w.TotalAt(clk.Now(), FastWindow); got != 2 {
		t.Fatalf("fast total past edge = %d, want 2", got)
	}
	if got := w.TotalAt(clk.Now(), SlowWindow); got != 7 {
		t.Fatalf("slow total = %d, want 7", got)
	}

	// Aging past the full span empties the slow window too.
	clk.Advance(time.Hour)
	if got := w.TotalAt(clk.Now(), SlowWindow); got != 0 {
		t.Fatalf("slow total past span = %d, want 0", got)
	}

	// Ring reuse after wraparound only sees the fresh write.
	w.AddAt(clk.Now(), 3)
	if got := w.TotalAt(clk.Now(), SlowWindow); got != 3 {
		t.Fatalf("slow total after wraparound = %d, want 3", got)
	}

	// A write stamped before the ring advanced past its bucket is
	// dropped, not misfiled into a newer bucket.
	w.AddAt(clk.Now().Add(-2*time.Hour), 100)
	if got := w.TotalAt(clk.Now(), SlowWindow); got != 3 {
		t.Fatalf("slow total after stale write = %d, want 3", got)
	}
}

func TestWindowedHistogramRotation(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram()

	w.ObserveAt(clk.Now(), 0.0005)
	w.ObserveAt(clk.Now(), 0.05)
	fast := w.MergedAt(clk.Now(), FastWindow)
	if fast.Count != 2 || fast.Sum != 0.0505 {
		t.Fatalf("fast merged = count %d sum %v", fast.Count, fast.Sum)
	}
	if got, want := fast.Counts[2], uint64(1); got != want { // (0.00025, 0.0005]
		t.Fatalf("bucket2 = %d", got)
	}

	clk.Advance(FastWindow)
	if got := w.MergedAt(clk.Now(), FastWindow).Count; got != 0 {
		t.Fatalf("fast count past edge = %d, want 0", got)
	}
	if got := w.MergedAt(clk.Now(), SlowWindow).Count; got != 2 {
		t.Fatalf("slow count = %d, want 2", got)
	}

	clk.Advance(SlowWindow)
	if got := w.MergedAt(clk.Now(), SlowWindow).Count; got != 0 {
		t.Fatalf("slow count past span = %d, want 0", got)
	}

	w.ObserveAt(clk.Now(), 20)
	reused := w.MergedAt(clk.Now(), FastWindow)
	if reused.Count != 1 || reused.Counts[len(DefBuckets)] != 1 {
		t.Fatalf("after reuse: count %d overflow %d", reused.Count, reused.Counts[len(DefBuckets)])
	}
}

func TestWindowedHistogramQuantileDeterministic(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram()
	for i := 0; i < 99; i++ {
		w.ObserveAt(clk.Now(), 0.0008) // bucket (0.0005, 0.001]
	}
	w.ObserveAt(clk.Now(), 0.05)
	s := w.MergedAt(clk.Now(), FastWindow)
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
	w := NewWindowedHistogram()
	w.ObserveAt(clk.Now(), 0.0005)
	w.ObserveAt(clk.Now(), 0.002)
	w.ObserveAt(clk.Now(), 0.05)
	w.ObserveAt(clk.Now(), 50) // overflow
	s := w.MergedAt(clk.Now(), FastWindow)

	// 0.001 is a bucket bound; 0.002 is not and snaps up to 0.0025.
	if good, eff := s.GoodCount(0.001); good != 1 || eff != 0.001 {
		t.Fatalf("GoodCount(0.001) = %d @ %v, want 1 @ 0.001", good, eff)
	}
	good, eff := s.GoodCount(0.002)
	if good != 2 || eff != 0.0025 {
		t.Fatalf("GoodCount(0.002) = %d @ %v, want 2 @ 0.0025", good, eff)
	}
	// Beyond the last bound: all finite buckets are good, overflow bad.
	good, eff = s.GoodCount(1000)
	if good != 3 || eff != 10 {
		t.Fatalf("GoodCount(1000) = %d @ %v, want 3 @ 10", good, eff)
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
	h := NewWindowedHistogram()
	c := new(WindowedCounter)

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
					h.MergedAt(clk.Now(), FastWindow)
					c.TotalAt(clk.Now(), FastWindow)
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
				h.ObserveAt(clk.Now(), 0.001)
				c.AddAt(clk.Now(), 1)
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if got := h.MergedAt(clk.Now(), FastWindow).Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := c.TotalAt(clk.Now(), FastWindow); got != workers*perWorker {
		t.Fatalf("counter total = %d, want %d", got, workers*perWorker)
	}
}

// TestWindowedConcurrentRotation drives the ring with a racing clock
// that crosses a bucket every ten reads and the whole ring every 3 600,
// so slots are claimed and recycled constantly; the invariant is no
// race-detector report and no overcounting past what was written.
func TestWindowedConcurrentRotation(t *testing.T) {
	var ticks atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		return base.Add(time.Duration(ticks.Add(1)) * time.Second)
	}
	h := NewWindowedHistogram()
	c := new(WindowedCounter)

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				h.ObserveAt(clock(), 0.0005)
				c.AddAt(clock(), 1)
				if j%64 == 0 {
					h.MergedAt(clock(), FastWindow)
					c.TotalAt(clock(), FastWindow)
				}
			}
		}()
	}
	wg.Wait()
	if got := h.MergedAt(clock(), SlowWindow).Count; got > workers*perWorker {
		t.Fatalf("histogram overcounted: %d > %d", got, workers*perWorker)
	}
	if got := c.TotalAt(clock(), SlowWindow); got > workers*perWorker {
		t.Fatalf("counter overcounted: %d > %d", got, workers*perWorker)
	}
}
