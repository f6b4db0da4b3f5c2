package analysis

import (
	"math"
	"testing"

	"dpsadopt/internal/simtime"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestInterpolate(t *testing.T) {
	// Middle gap: linear bridge.
	got := Interpolate([]float64{10, 0, 0, 40}, []bool{false, true, true, false})
	want := []float64{10, 20, 30, 40}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Fatalf("middle gap: got %v, want %v", got, want)
		}
	}
	// Leading and trailing gaps clamp to the nearest unmasked value.
	got = Interpolate([]float64{0, 0, 5, 0}, []bool{true, true, false, true})
	want = []float64{5, 5, 5, 5}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Fatalf("edge gaps: got %v, want %v", got, want)
		}
	}
	// All masked or no mask: values unchanged.
	if got := Interpolate([]float64{1, 2}, []bool{true, true}); got[0] != 1 || got[1] != 2 {
		t.Errorf("all-masked: got %v", got)
	}
	if got := Interpolate([]float64{1, 2}, nil); got[0] != 1 || got[1] != 2 {
		t.Errorf("nil mask: got %v", got)
	}
	// Input must not be modified.
	in := []float64{10, 0, 40}
	Interpolate(in, []bool{false, true, false})
	if in[1] != 0 {
		t.Error("Interpolate modified its input")
	}
}

// TestSmoothMaskedRecoversTrend is the Fig 5 story in miniature: a steady
// growth series with a degraded window carved out. The despike pass alone
// repairs narrow dips, but a degraded stretch wider than ~30% of the
// despike window drags the rolling lower-quantile baseline down with it —
// exactly the failure the mask exists for. Masked smoothing bridges the
// stretch by interpolation and recovers the trend.
func TestSmoothMaskedRecoversTrend(t *testing.T) {
	const n = 400
	truth := make([]float64, n)
	vals := make([]float64, n)
	mask := make([]bool, n)
	for i := range truth {
		truth[i] = 1000 + 2*float64(i) // slow linear growth
		vals[i] = truth[i]
	}
	for i := 170; i < 230; i++ { // 60-day degraded stretch: counts collapse
		vals[i] = truth[i] * 0.3
		mask[i] = true
	}
	masked := SmoothMasked(vals, mask)
	unmasked := Smooth(vals)
	worstMasked, worstUnmasked := 0.0, 0.0
	for i := 150; i < 260; i++ {
		dm := math.Abs(masked[i]-truth[i]) / truth[i]
		du := math.Abs(unmasked[i]-truth[i]) / truth[i]
		if dm > worstMasked {
			worstMasked = dm
		}
		if du > worstUnmasked {
			worstUnmasked = du
		}
	}
	if worstMasked > 0.05 {
		t.Errorf("masked smoothing deviates %.1f%% from the true trend", worstMasked*100)
	}
	if worstUnmasked < 0.15 {
		t.Errorf("unmasked smoothing deviates only %.1f%%: the degraded dip should poison it (test setup broken?)", worstUnmasked*100)
	}
	// With nothing masked, SmoothMasked is exactly Smooth.
	a, b := SmoothMasked(truth, nil), Smooth(truth)
	for i := range a {
		if !almost(a[i], b[i]) {
			t.Fatal("SmoothMasked(nil mask) != Smooth")
		}
	}
}

func TestAggregatorDegradedDays(t *testing.T) {
	a := NewAggregator(oneProviderRefs(t), nil, nil)
	if len(a.degraded) != 0 {
		t.Fatal("fresh aggregator has degraded days")
	}
	a.MarkDegraded(9)
	a.MarkDegraded(3)
	a.MarkDegraded(9) // idempotent
	if len(a.degraded) != 2 || !a.degraded[9] || !a.degraded[3] {
		t.Errorf("degraded days = %v, want 3 and 9", a.degraded)
	}
	mask := a.degradedMask([]simtime.Day{2, 3, 4, 9})
	want := []bool{false, true, false, true}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("mask = %v, want %v", mask, want)
		}
	}
	if a.degradedMask([]simtime.Day{1, 2}) != nil {
		t.Error("mask with no degraded days should be nil")
	}
}
