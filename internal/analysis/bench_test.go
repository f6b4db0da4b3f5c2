package analysis

import (
	"math/rand"
	"net/netip"
	"testing"

	"dpsadopt/internal/core"
	"dpsadopt/internal/store"
)

// Ablation: median smoothing window width — narrow windows leak
// multi-day anomalies into the growth trend, wide windows lag genuine
// inflections (DESIGN.md §5). The benchmark reports leaked anomaly mass
// per window alongside runtime.

func anomalySeries() []float64 {
	r := rand.New(rand.NewSource(3))
	vals := make([]float64, 550)
	for i := range vals {
		vals[i] = 4000 + float64(i)*1.7 + r.Float64()*40 // trend + noise
		if i >= 100 && i < 105 {
			vals[i] += 1100 // 5-day anomaly
		}
		if i >= 300 && i < 312 {
			vals[i] += 1700 // 12-day anomaly
		}
	}
	return vals
}

// leakedMass sums the smoothed series' excursion above the clean trend.
func leakedMass(smoothed []float64) float64 {
	total := 0.0
	for i, v := range smoothed {
		trend := 4000 + float64(i)*1.7 + 20
		if d := v - trend; d > 60 {
			total += d
		}
	}
	return total
}

func benchWindow(b *testing.B, window int) {
	vals := anomalySeries()
	b.ReportAllocs()
	b.ResetTimer()
	var out []float64
	for i := 0; i < b.N; i++ {
		out = MedianWindow(Despike(vals, DefaultDespikeWindow, DefaultDespikeFraction), window)
	}
	b.ReportMetric(leakedMass(out), "leaked-mass")
}

func BenchmarkAblationSmoothingWindow7(b *testing.B)  { benchWindow(b, 7) }
func BenchmarkAblationSmoothingWindow21(b *testing.B) { benchWindow(b, 21) }
func BenchmarkAblationSmoothingWindow49(b *testing.B) { benchWindow(b, 49) }

// BenchmarkAblationSmoothingNoDespike shows what the narrow median alone
// leaves behind: the 12-day anomaly survives a 21-day window.
func BenchmarkAblationSmoothingNoDespike(b *testing.B) {
	vals := anomalySeries()
	b.ReportAllocs()
	var out []float64
	for i := 0; i < b.N; i++ {
		out = MedianWindow(vals, 21)
	}
	b.ReportMetric(leakedMass(out), "leaked-mass")
}

func TestDespikeBeatsPlainMedian(t *testing.T) {
	vals := anomalySeries()
	plain := leakedMass(MedianWindow(vals, 21))
	cleaned := leakedMass(Smooth(vals))
	if cleaned >= plain/4 {
		t.Errorf("despike ineffective: leaked %f vs plain %f", cleaned, plain)
	}
}

func BenchmarkAggregatorAddDay(b *testing.B) {
	refs := mustRefs(b)
	s := bigSynthStore(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAggregator(refs, s, []string{"com"})
		if err := a.AddDetections(core.DetectDay(s, "com", 1, refs)); err != nil {
			b.Fatal(err)
		}
	}
}

func mustRefs(tb testing.TB) *core.References {
	refs, err := core.NewReferences([]core.ProviderRefs{{
		Name: "CloudFlare", ASNs: []uint32{13335},
		CNAMESLDs: []string{"cloudflare.net"}, NSSLDs: []string{"cloudflare.com"},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return refs
}

// bigSynthStore builds one day with n domains, 20% protected.
func bigSynthStore(n int) *store.Store {
	s := store.New()
	w := s.NewWriter("com", 1)
	cf := netip.MustParseAddr("104.16.0.1")
	bg := netip.MustParseAddr("100.64.0.1")
	for i := 0; i < n; i++ {
		name := domName(i)
		if i%5 == 0 {
			w.AddAddr(name, store.KindApexA, cf, []uint32{13335})
			w.AddStr(name, store.KindNS, "kate.ns.cloudflare.com")
		} else {
			w.AddAddr(name, store.KindApexA, bg, []uint32{64601})
			w.AddStr(name, store.KindNS, "ns1.hostco1.net")
		}
	}
	w.Commit()
	return s
}
