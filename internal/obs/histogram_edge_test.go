package obs

import (
	"io"
	"sync"
	"testing"
)

func TestHistogramQuantileEmpty(t *testing.T) {
	h := newHistogram(nil)
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%v) on empty histogram = %v, want 0", q, got)
		}
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	if lo, hi := h.Quantile(-5), h.Quantile(5); lo != h.Quantile(0) || hi != h.Quantile(1) {
		t.Fatalf("out-of-range q not clamped: %v/%v", lo, hi)
	}
	// Everything beyond the last bound saturates there.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want 2", got)
	}
}

// TestHistogramObserveNSnapshotRace runs bulk writers against registry
// snapshots and Prometheus rendering under the race detector, then
// checks nothing was lost.
func TestHistogramObserveNSnapshotRace(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("race_hist_seconds", "race test", nil)

	const workers = 8
	const perWorker = 2000
	const batch = 3
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					reg.Snapshot()
					reg.WritePrometheus(io.Discard)
					h.Quantile(0.99)
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for i := 0; i < workers; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for j := 0; j < perWorker; j++ {
				h.ObserveN(0.001*float64(i+1), batch)
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := h.Count(); got != workers*perWorker*batch {
		t.Fatalf("count = %d, want %d", got, workers*perWorker*batch)
	}
	snap := reg.Snapshot().Histogram("race_hist_seconds")
	if snap.Count != workers*perWorker*batch {
		t.Fatalf("snapshot count = %d", snap.Count)
	}
	if snap.P99 == 0 {
		t.Fatalf("p99 = 0 on populated histogram")
	}
}

func TestHistogramObserveNZero(t *testing.T) {
	h := newHistogram(nil)
	h.ObserveN(1, 0)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("ObserveN(_, 0) recorded something: count %d sum %v", h.Count(), h.Sum())
	}
}
