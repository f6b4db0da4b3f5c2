package analysis

import (
	"sort"

	"dpsadopt/internal/simtime"
)

// This file implements the growth analysis of §4.2: "we do not count
// anomalous peaks and troughs. We smooth shorter and smaller anomalies
// out by taking the median reference count over a time window of several
// weeks, while the large anomalies are cleaned manually." The manual step
// is replaced by an automatic despike pass against a wide rolling *lower
// quantile*: third-party anomalies are overwhelmingly upward (cohorts
// switch protection on), and in anomaly-dense stretches they can occupy
// more than half of any window — which defeats a median baseline — so the
// baseline tracks the 30th percentile instead, which survives up to ~70%
// anomaly density while following genuine slow growth. Values deviating
// from the baseline by more than a relative threshold are replaced by it
// (peaks and one-day troughs alike); permanent level shifts move the
// quantile with them and are preserved, as the paper's Fig 5 preserves
// the March 2016 dip. A conventional narrow median window then smooths
// what remains.

// Default smoothing parameters (days / quantile / fraction).
const (
	DefaultDespikeWindow   = 151
	DefaultMedianWindow    = 21
	DefaultDespikeFraction = 0.05
	baselineQuantile       = 0.30
)

// RollingQuantile returns the centred rolling q-quantile of vals with the
// given odd window (even windows are widened by one). Edges use the
// available partial window.
func RollingQuantile(vals []float64, window int, q float64) []float64 {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	half := window / 2
	out := make([]float64, len(vals))
	buf := make([]float64, 0, window)
	for i := range vals {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(vals) {
			hi = len(vals)
		}
		buf = append(buf[:0], vals[lo:hi]...)
		sort.Float64s(buf)
		n := len(buf)
		k := int(q * float64(n-1))
		out[i] = buf[k]
	}
	return out
}

// MedianWindow returns the centred rolling median of vals.
func MedianWindow(vals []float64, window int) []float64 {
	return RollingQuantile(vals, window, 0.5)
}

// Despike replaces values deviating from the wide rolling baseline (the
// 30th percentile, robust against anomaly-dense stretches) by more than
// frac (relative) with that baseline — the automated stand-in for the
// paper's manual cleaning of large anomalies.
func Despike(vals []float64, window int, frac float64) []float64 {
	base := RollingQuantile(vals, window, baselineQuantile)
	out := make([]float64, len(vals))
	for i, v := range vals {
		b := base[i]
		dev := v - b
		if dev < 0 {
			dev = -dev
		}
		if b > 0 && dev > frac*b {
			out[i] = b
		} else {
			out[i] = v
		}
	}
	return out
}

// Smooth applies the full §4.2 pipeline: despike against the wide median,
// then smooth with the narrow median window.
func Smooth(vals []float64) []float64 {
	return MedianWindow(Despike(vals, DefaultDespikeWindow, DefaultDespikeFraction), DefaultMedianWindow)
}

// Relative normalises a series to its first element (the paper's
// "relative to the start of our data set").
func Relative(vals []float64) []float64 {
	out := make([]float64, len(vals))
	if len(vals) == 0 || vals[0] == 0 {
		return out
	}
	for i, v := range vals {
		out[i] = v / vals[0]
	}
	return out
}

// GrowthResult is the Fig 5 / Fig 6 material for one source set.
type GrowthResult struct {
	Days []simtime.Day
	// Adoption is the smoothed DPS-use series relative to day 0.
	Adoption []float64
	// Expansion is the smoothed namespace series relative to day 0.
	Expansion []float64
}

// AdoptionGrowth is the final/initial ratio of the adoption series.
func (g GrowthResult) AdoptionGrowth() float64 {
	if len(g.Adoption) == 0 {
		return 0
	}
	return g.Adoption[len(g.Adoption)-1]
}

// ExpansionGrowth is the final/initial ratio of the namespace series.
func (g GrowthResult) ExpansionGrowth() float64 {
	if len(g.Expansion) == 0 {
		return 0
	}
	return g.Expansion[len(g.Expansion)-1]
}

// Growth computes the §4.2 trend for a set of sources (combined): the
// smoothed, anomaly-cleaned, normalised DPS-use series against the
// namespace expansion.
func (a *Aggregator) Growth(sources []string) GrowthResult {
	days := a.Days(sources[0])
	var g GrowthResult
	if len(days) == 0 {
		return g
	}
	g.Days = days
	use := make([]float64, len(days))
	measured := make([]float64, len(days))
	for i, d := range days {
		use[i] = float64(a.SumAny(sources, d))
		measured[i] = float64(a.SumMeasured(sources, d))
	}
	mask := a.degradedMask(days)
	g.Adoption = Relative(SmoothMasked(use, mask))
	g.Expansion = Relative(SmoothMasked(measured, mask))
	return g
}
