package obs

import (
	"math"
	"sync/atomic"
)

// DefBuckets are the default latency bucket upper bounds in seconds,
// spanning 100µs (an in-memory exchange) to 10s (a retry storm against a
// lossy wire network).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations in fixed buckets and supports quantile
// estimation by linear interpolation within the located bucket. Observe
// is wait-free; Quantile and the exposition helpers take a consistent-
// enough snapshot by loading each bucket once (monotone counters make
// minor skew harmless).
//
// Each bucket can additionally carry an exemplar: the trace ID of the
// slowest observation that landed in it (see ObserveExemplar), linking
// the aggregate latency distribution back to request-scoped traces.
type Histogram struct {
	bounds    []float64       // ascending upper bounds; +Inf is implicit
	counts    []atomic.Uint64 // len(bounds)+1, last is the overflow bucket
	count     atomic.Uint64
	sumBits   atomic.Uint64 // float64 bits of the running sum
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one observed value to the trace it came from.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveN records n observations of value v in one wait-free update —
// the bulk-transfer path the runtime collector uses to fold
// runtime/metrics bucket deltas into a registry histogram without n
// individual Observe calls.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.counts[bucketIndex(h.bounds, v)].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is non-empty,
// keeps it as the bucket's exemplar if it is the slowest observation the
// bucket has seen — so every bucket points at the trace of its worst
// case. Lock-free: a racing slower observation wins the CAS retry.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := bucketIndex(h.bounds, v)
	nw := &Exemplar{Value: v, TraceID: traceID}
	for {
		old := h.exemplars[i].Load()
		if old != nil && old.Value >= v {
			return
		}
		if h.exemplars[i].CompareAndSwap(old, nw) {
			return
		}
	}
}

// Exemplars returns the per-bucket exemplars, index-aligned with
// BucketCounts (the final element is the overflow bucket); buckets with
// no exemplar are nil.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns per-bucket (non-cumulative) counts; the final
// element is the overflow (+Inf) bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) assuming observations
// are uniform within each bucket. With no observations it returns 0; the
// estimate for ranks landing in the overflow bucket is the largest finite
// bound (the histogram cannot resolve beyond it).
func (h *Histogram) Quantile(q float64) float64 {
	return quantileFromCounts(h.bounds, h.BucketCounts(), q)
}
