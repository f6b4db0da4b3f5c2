package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Clock is an injectable time source for the windowed types. Production
// code leaves it nil (time.Now); tests drive it forward explicitly so
// bucket-rotation boundaries are exercised without wall-clock flakiness.
// Times must be after the Unix epoch.
type Clock func() time.Time

// Standard evaluation windows for the SLO engine (Google SRE-style
// multiwindow burn alerting: a fast window catches new fires, a slow
// window filters flapping).
const (
	FastWindow = 5 * time.Minute
	SlowWindow = time.Hour

	// DefaultWindowStep is the bucket width of the slot ring: windows
	// are resolved to this granularity, so a "5m" read actually covers
	// the last 30 buckets including the current partial one.
	DefaultWindowStep = 10 * time.Second
)

// Sentinel epochs for ring slots. Real epochs are UnixNano/step ticks of
// post-1970 clocks, so large negative values can never collide.
const (
	epochEmpty   = math.MinInt64     // slot never written
	epochClaimed = math.MinInt64 + 1 // slot mid-reset by a writer
)

// windowRing holds the geometry shared by WindowedCounter and
// WindowedHistogram: a ring of nslots buckets, each step wide, indexed by
// tick = UnixNano/step. A slot is valid for exactly one tick; the writer
// that first touches a recycled slot CASes its epoch to epochClaimed,
// zeroes it, then publishes the new tick. Readers merge only slots whose
// epoch matches the tick they expect and re-check the epoch after
// reading, so a concurrent recycle at worst drops that slot from one
// read instead of corrupting it.
type windowRing struct {
	step   int64 // bucket width in nanoseconds
	nslots int64
	clock  Clock
}

func (r *windowRing) init(step, span time.Duration, clock Clock) {
	if step <= 0 {
		step = DefaultWindowStep
	}
	if span <= 0 {
		span = SlowWindow
	}
	if clock == nil {
		clock = time.Now
	}
	n := int64(span / step)
	if n < 2 {
		n = 2
	}
	r.step = int64(step)
	r.nslots = n
	r.clock = clock
}

func (r *windowRing) tick(t time.Time) int64 { return t.UnixNano() / r.step }

// idx maps a tick to its slot, tolerating pre-epoch clocks.
func (r *windowRing) idx(tick int64) int {
	i := int(tick % r.nslots)
	if i < 0 {
		i += int(r.nslots)
	}
	return i
}

// ticksFor converts a window to a bucket count, clamped to [1, nslots].
func (r *windowRing) ticksFor(window time.Duration) int64 {
	k := int64(window) / r.step
	if k < 1 {
		k = 1
	}
	if k > r.nslots {
		k = r.nslots
	}
	return k
}

// Step returns the bucket width.
func (r *windowRing) Step() time.Duration { return time.Duration(r.step) }

// Span returns the longest window the ring can answer.
func (r *windowRing) Span() time.Duration { return time.Duration(r.step * r.nslots) }

// WindowedCounter counts events per fixed-duration bucket in a ring, so
// totals and rates over the trailing window (up to the ring span) can be
// read at any time. The hot path is one atomic add when the slot is
// current; recycling a slot costs one CAS. Unlike Counter it is not
// monotonic from a reader's perspective: old buckets age out.
type WindowedCounter struct {
	ring  windowRing
	slots []counterSlot
}

type counterSlot struct {
	epoch atomic.Int64
	n     atomic.Int64
}

// NewWindowedCounter creates a windowed counter with the given bucket
// step and total span (zero values use DefaultWindowStep / SlowWindow);
// nil clock uses time.Now.
func NewWindowedCounter(step, span time.Duration, clock Clock) *WindowedCounter {
	w := &WindowedCounter{}
	w.ring.init(step, span, clock)
	w.slots = make([]counterSlot, w.ring.nslots)
	for i := range w.slots {
		w.slots[i].epoch.Store(epochEmpty)
	}
	return w
}

// Span returns the longest answerable window.
func (w *WindowedCounter) Span() time.Duration { return w.ring.Span() }

// AddAt records n events at time t (the injectable-clock form).
func (w *WindowedCounter) AddAt(t time.Time, n int64) {
	tick := w.ring.tick(t)
	s := &w.slots[w.ring.idx(tick)]
	for {
		switch e := s.epoch.Load(); {
		case e == tick:
			s.n.Add(n)
			return
		case e == epochClaimed:
			// Another writer is resetting this slot; retry.
		case e > tick:
			// The ring already advanced past this write's bucket
			// (a stale-clock or very slow writer): drop it.
			return
		default:
			if s.epoch.CompareAndSwap(e, epochClaimed) {
				s.n.Store(n)
				s.epoch.Store(tick)
				return
			}
		}
	}
}

// Total sums the trailing window (clamped to the ring span), including
// the current partial bucket.
func (w *WindowedCounter) Total(window time.Duration) int64 {
	return w.TotalAt(w.ring.clock(), window)
}

// TotalAt is Total evaluated as of time t.
func (w *WindowedCounter) TotalAt(t time.Time, window time.Duration) int64 {
	now := w.ring.tick(t)
	var sum int64
	for tk := now - w.ring.ticksFor(window) + 1; tk <= now; tk++ {
		s := &w.slots[w.ring.idx(tk)]
		if s.epoch.Load() != tk {
			continue
		}
		v := s.n.Load()
		if s.epoch.Load() != tk {
			continue // recycled mid-read
		}
		sum += v
	}
	return sum
}

// WindowedHistogram is a fixed-bucket histogram per ring slot: Observe
// lands in the current slot, and Merged folds the trailing window's
// slots into one WindowSnapshot for quantile and threshold queries. It
// shares bucket semantics (and DefBuckets) with Histogram but ages out
// old observations instead of accumulating forever.
type WindowedHistogram struct {
	ring   windowRing
	bounds []float64
	slots  []histSlot
}

type histSlot struct {
	epoch   atomic.Int64
	count   atomic.Uint64
	sumBits atomic.Uint64
	counts  []atomic.Uint64 // len(bounds)+1, last is overflow
}

// NewWindowedHistogram creates a windowed histogram; nil bounds use
// DefBuckets, zero step/span use DefaultWindowStep / SlowWindow, nil
// clock uses time.Now.
func NewWindowedHistogram(bounds []float64, step, span time.Duration, clock Clock) *WindowedHistogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	w := &WindowedHistogram{bounds: b}
	w.ring.init(step, span, clock)
	w.slots = make([]histSlot, w.ring.nslots)
	for i := range w.slots {
		w.slots[i].epoch.Store(epochEmpty)
		w.slots[i].counts = make([]atomic.Uint64, len(b)+1)
	}
	return w
}

// Span returns the longest answerable window.
func (w *WindowedHistogram) Span() time.Duration { return w.ring.Span() }

// ObserveAt records one value at time t (the injectable-clock form).
func (w *WindowedHistogram) ObserveAt(t time.Time, v float64) {
	tick := w.ring.tick(t)
	s := &w.slots[w.ring.idx(tick)]
	for {
		e := s.epoch.Load()
		if e == tick {
			break
		}
		if e == epochClaimed {
			continue // another writer is resetting; wait for publish
		}
		if e > tick {
			return // ring advanced past this bucket
		}
		if s.epoch.CompareAndSwap(e, epochClaimed) {
			for i := range s.counts {
				s.counts[i].Store(0)
			}
			s.count.Store(0)
			s.sumBits.Store(0)
			s.epoch.Store(tick)
			break
		}
	}
	s.counts[bucketIndex(w.bounds, v)].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Merged folds the trailing window into one snapshot.
func (w *WindowedHistogram) Merged(window time.Duration) WindowSnapshot {
	return w.MergedAt(w.ring.clock(), window)
}

// MergedAt is Merged evaluated as of time t.
func (w *WindowedHistogram) MergedAt(t time.Time, window time.Duration) WindowSnapshot {
	now := w.ring.tick(t)
	k := w.ring.ticksFor(window)
	snap := WindowSnapshot{
		Window: time.Duration(k) * w.ring.Step(),
		Bounds: w.bounds,
		Counts: make([]uint64, len(w.bounds)+1),
	}
	tmp := make([]uint64, len(w.bounds)+1)
	for tk := now - k + 1; tk <= now; tk++ {
		s := &w.slots[w.ring.idx(tk)]
		if s.epoch.Load() != tk {
			continue
		}
		for i := range s.counts {
			tmp[i] = s.counts[i].Load()
		}
		count := s.count.Load()
		sum := math.Float64frombits(s.sumBits.Load())
		if s.epoch.Load() != tk {
			continue // recycled mid-read; drop this slot
		}
		for i, c := range tmp {
			snap.Counts[i] += c
		}
		snap.Count += count
		snap.Sum += sum
	}
	return snap
}

// WindowSnapshot is a merged read of a windowed histogram: per-bucket
// counts over the effective window, plus total count and sum. It is a
// plain value — safe to keep, compare, or serve — and answers quantile
// and threshold queries against the merged distribution.
type WindowSnapshot struct {
	Window time.Duration `json:"-"`
	Bounds []float64     `json:"-"`
	Counts []uint64      `json:"-"`
	Count  uint64        `json:"count"`
	Sum    float64       `json:"sum"`
}

// Quantile estimates the q-quantile of the merged window (same
// interpolation semantics as Histogram.Quantile; 0 when empty).
func (s WindowSnapshot) Quantile(q float64) float64 {
	return quantileFromCounts(s.Bounds, s.Counts, q)
}

// GoodCount returns how many observations were <= threshold, along with
// the effective threshold used: fixed buckets cannot resolve arbitrary
// cutoffs, so the threshold snaps UP to the smallest bucket bound >= it
// (lenient — borderline observations count as good). A threshold beyond
// the largest finite bound counts every non-overflow observation and
// reports that largest bound.
func (s WindowSnapshot) GoodCount(threshold float64) (good uint64, effective float64) {
	i := bucketIndex(s.Bounds, threshold)
	if i >= len(s.Bounds) {
		i = len(s.Bounds) - 1
	}
	if i < 0 {
		return 0, threshold
	}
	for j := 0; j <= i; j++ {
		good += s.Counts[j]
	}
	return good, s.Bounds[i]
}

// bucketIndex returns the bucket an observation of v lands in: the first
// bound >= v, or len(bounds) for the overflow bucket.
func bucketIndex(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// quantileFromCounts estimates the q-quantile from per-bucket counts
// (len(bounds)+1, last overflow), interpolating linearly within the
// located bucket; empty counts return 0 and overflow ranks saturate at
// the largest finite bound.
func quantileFromCounts(bounds []float64, counts []uint64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		prev := float64(cum)
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i == len(bounds) {
			// Overflow bucket: saturate at the largest finite bound.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return bounds[len(bounds)-1]
}
