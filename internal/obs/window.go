package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Clock is an injectable time source for the observatory. Production
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

	// WindowStep is the bucket width of the slot ring: windows are
	// resolved to this granularity, so a "5m" read actually covers the
	// last 30 buckets including the current partial one.
	WindowStep = 10 * time.Second

	// windowSlots buckets span the slow window, the longest one read.
	windowSlots = int(SlowWindow / WindowStep)
)

// epochClaimed marks a ring slot mid-reset by a writer. Real epochs are
// UnixNano/WindowStep ticks of post-1970 clocks, so they are positive,
// and the zero epoch of a slot never written matches no tick.
const epochClaimed = -1

// The ring geometry shared by WindowedCounter and WindowedHistogram:
// windowSlots buckets, each WindowStep wide, indexed by tick =
// UnixNano/WindowStep. A slot is valid for exactly one tick; the writer
// that first touches a recycled slot CASes its epoch to epochClaimed,
// zeroes it, then publishes the new tick. Readers merge only slots whose
// epoch matches the tick they expect and re-check the epoch after
// reading, so a concurrent recycle at worst drops that slot from one
// read instead of corrupting it.

func windowTick(t time.Time) int64 { return t.UnixNano() / int64(WindowStep) }

func windowSlot(tick int64) int { return int(tick % int64(windowSlots)) }

// windowTicks converts a window to a bucket count, clamped to [1,
// windowSlots].
func windowTicks(window time.Duration) int64 {
	return min(max(int64(window/WindowStep), 1), int64(windowSlots))
}

// WindowedCounter counts events per WindowStep bucket in a ring spanning
// SlowWindow, so totals over any trailing window up to that span can be
// read at any time. The hot path is one atomic add when the slot is
// current; recycling a slot costs one CAS. Old buckets age out. The
// zero value is ready to use.
type WindowedCounter struct {
	slots [windowSlots]counterSlot
}

type counterSlot struct {
	epoch atomic.Int64
	n     atomic.Int64
}

// AddAt records n events at time t.
func (w *WindowedCounter) AddAt(t time.Time, n int64) {
	tick := windowTick(t)
	s := &w.slots[windowSlot(tick)]
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

// TotalAt sums the trailing window (clamped to SlowWindow) as of time t,
// including the current partial bucket. A nil counter has counted
// nothing.
func (w *WindowedCounter) TotalAt(t time.Time, window time.Duration) int64 {
	if w == nil {
		return 0
	}
	now := windowTick(t)
	var sum int64
	for tk := now - windowTicks(window) + 1; tk <= now; tk++ {
		s := &w.slots[windowSlot(tk)]
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

// WindowedHistogram is a DefBuckets histogram per ring slot: ObserveAt
// lands in the current slot, and MergedAt folds the trailing window's
// slots into one WindowSnapshot for quantile and threshold queries. It
// shares bucket semantics with Histogram but ages out old observations
// instead of accumulating forever.
type WindowedHistogram struct {
	slots [windowSlots]histSlot
}

type histSlot struct {
	epoch   atomic.Int64
	count   atomic.Uint64
	sumBits atomic.Uint64
	counts  []atomic.Uint64 // len(DefBuckets)+1, last is overflow
}

// NewWindowedHistogram creates an empty windowed histogram.
func NewWindowedHistogram() *WindowedHistogram {
	w := &WindowedHistogram{}
	for i := range w.slots {
		w.slots[i].counts = make([]atomic.Uint64, len(DefBuckets)+1)
	}
	return w
}

// ObserveAt records one value at time t.
func (w *WindowedHistogram) ObserveAt(t time.Time, v float64) {
	tick := windowTick(t)
	s := &w.slots[windowSlot(tick)]
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
	s.counts[bucketIndex(DefBuckets, v)].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// MergedAt folds the trailing window (clamped to SlowWindow) as of time
// t into one snapshot. A nil histogram yields an empty one.
func (w *WindowedHistogram) MergedAt(t time.Time, window time.Duration) WindowSnapshot {
	now := windowTick(t)
	snap := WindowSnapshot{
		Bounds: DefBuckets,
		Counts: make([]uint64, len(DefBuckets)+1),
	}
	if w == nil {
		return snap
	}
	tmp := make([]uint64, len(DefBuckets)+1)
	for tk := now - windowTicks(window) + 1; tk <= now; tk++ {
		s := &w.slots[windowSlot(tk)]
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
// counts over the window, plus total count and sum. It is a plain value
// and answers quantile and threshold queries against the merged
// distribution.
type WindowSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
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
