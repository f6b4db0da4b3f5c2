package analysis

import "dpsadopt/internal/simtime"

// Degraded-day handling. The paper's crawl had partial measurement days —
// "measurement or data processing failures led to eight days of missing
// data" and visible dips like March 2016 in Fig 5 — and its growth
// analysis had to keep those artifacts from reading as adoption change.
// The experiment layer marks a day degraded when the wire failure rate
// exceeds its threshold; the growth pipeline then masks those days and
// bridges them by linear interpolation before smoothing, so a chaos-struck
// window cannot drag the trend down.

// MarkDegraded records that a day's measurement was committed in a
// degraded state (excess resolution failures). Safe to call repeatedly.
func (a *Aggregator) MarkDegraded(day simtime.Day) {
	if a.degraded == nil {
		a.degraded = make(map[simtime.Day]bool)
	}
	a.degraded[day] = true
}

// degradedMask builds the per-index mask for a day series.
func (a *Aggregator) degradedMask(days []simtime.Day) []bool {
	if len(a.degraded) == 0 {
		return nil
	}
	mask := make([]bool, len(days))
	any := false
	for i, d := range days {
		if a.degraded[d] {
			mask[i] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return mask
}

// Interpolate returns vals with masked entries replaced by linear
// interpolation between the nearest unmasked neighbours. Masked runs at
// the edges clamp to the nearest unmasked value; an all-masked (or
// mask-less) series is returned as a copy.
func Interpolate(vals []float64, mask []bool) []float64 {
	out := append([]float64(nil), vals...)
	if len(mask) != len(vals) {
		return out
	}
	prev := -1 // last unmasked index seen
	for i := 0; i <= len(out); i++ {
		if i < len(out) && mask[i] {
			continue
		}
		if gap := i - prev - 1; gap > 0 {
			switch {
			case prev < 0 && i >= len(out):
				// Everything masked: nothing to bridge from.
			case prev < 0:
				for j := 0; j < i; j++ {
					out[j] = out[i]
				}
			case i >= len(out):
				for j := prev + 1; j < i; j++ {
					out[j] = out[prev]
				}
			default:
				step := (out[i] - out[prev]) / float64(i-prev)
				for j := prev + 1; j < i; j++ {
					out[j] = out[prev] + step*float64(j-prev)
				}
			}
		}
		prev = i
	}
	return out
}

// SmoothMasked applies the §4.2 smoothing pipeline with degraded days
// bridged first, so a masked trough neither survives the despike pass as
// a fake anomaly nor drags the median down.
func SmoothMasked(vals []float64, mask []bool) []float64 {
	return Smooth(Interpolate(vals, mask))
}
