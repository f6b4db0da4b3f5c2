package main

import (
	"math"
	"sort"
)

func sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median of vals; 0 for an empty slice.
func median(vals []float64) float64 {
	s := sorted(vals)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// lowerQuartile is the nearest-rank first quartile: what a run reports
// of a timing's samples. The machine's disturbances only ever add time.
func lowerQuartile(vals []float64) float64 { return quantile(vals, 0.25) }

// quantile is the nearest-rank q-quantile (0 < q <= 1).
func quantile(vals []float64, q float64) float64 {
	s := sorted(vals)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// highPercentile returns the highest percentile of vals that still has
// at least ten samples beyond it, and which percentile that is. With
// fewer than eleven samples no tail percentile is supported and the
// median is returned (pct 50).
func highPercentile(vals []float64) (value, pct float64) {
	s := sorted(vals)
	n := len(s)
	if n < 11 {
		return median(s), 50
	}
	i := n - 11 // ten samples lie strictly beyond index i
	return s[i], 100 * float64(i+1) / float64(n)
}

// quartileSpread is the contract's steadiness measure: the distance
// between the first and third quartile (exclusive method, as Python's
// statistics.quantiles(values, n=4)) as a share of the median.
func quartileSpread(vals []float64) float64 {
	s := sorted(vals)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		frac := pos - float64(j)
		if j < 1 {
			j, frac = 1, 0
		} else if j > n-1 {
			j, frac = n-1, 1
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	spread := q(3) - q(1)
	if med < 0 {
		med = -med
	}
	return spread / med
}
