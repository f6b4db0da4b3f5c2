package analysis

import (
	"math"
	"net/netip"
	"reflect"
	"testing"

	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// oneProviderRefs builds a reference table with a single CloudFlare-like
// provider.
func oneProviderRefs(t *testing.T) *core.References {
	t.Helper()
	refs, err := core.NewReferences([]core.ProviderRefs{{
		Name:      "CloudFlare",
		ASNs:      []uint32{13335},
		CNAMESLDs: []string{"cloudflare.net"},
		NSSLDs:    []string{"cloudflare.com"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// syntheticStore builds 10 days of hand-crafted detections:
//
//	a.com — present every day (always-on)
//	b.com — peaks [1,3), [4,5), [6,9) (on-demand, 3 peaks)
//	c.com — single interval [3,6)
//	bg.com — measured daily, never protected
func syntheticStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	cfAddr := netip.MustParseAddr("104.16.0.1")
	bgAddr := netip.MustParseAddr("100.64.0.1")
	present := func(day simtime.Day, dom string) bool {
		switch dom {
		case "a.com":
			return true
		case "b.com":
			return (day >= 1 && day < 3) || day == 4 || (day >= 6 && day < 9)
		case "c.com":
			return day >= 3 && day < 6
		}
		return false
	}
	for day := simtime.Day(0); day < 10; day++ {
		w := s.NewWriter("com", day)
		for _, dom := range []string{"a.com", "b.com", "c.com", "bg.com"} {
			if present(day, dom) {
				w.AddAddr(dom, store.KindApexA, cfAddr, []uint32{13335})
				w.AddStr(dom, store.KindNS, "kate.ns.cloudflare.com")
			} else {
				w.AddAddr(dom, store.KindApexA, bgAddr, []uint32{64601})
				w.AddStr(dom, store.KindNS, "ns1.hostco1.net")
			}
		}
		w.Commit()
	}
	return s
}

func syntheticAgg(t *testing.T) *Aggregator {
	t.Helper()
	refs := oneProviderRefs(t)
	s := syntheticStore(t)
	a := NewAggregator(refs, s, []string{"com"})
	if err := a.Run([]string{"com"}); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAggregatorCounts(t *testing.T) {
	a := syntheticAgg(t)
	dc := a.counts["com"][0]
	if dc == nil || dc.Measured != 4 || dc.Any != 1 || dc.PerProvider[0] != 1 {
		t.Fatalf("day 0: %+v", dc)
	}
	dc = a.counts["com"][4]
	if dc.Any != 3 {
		t.Errorf("day 4 Any = %d, want 3 (a, b, c)", dc.Any)
	}
	// Methods: protected rows carry AS + NS.
	if dc.PerMethod[0][0] != 3 || dc.PerMethod[0][2] != 3 || dc.PerMethod[0][1] != 0 {
		t.Errorf("day 4 methods = %v", dc.PerMethod[0])
	}
	if got := a.SumAny([]string{"com"}, 4); got != 3 {
		t.Errorf("SumAny = %d", got)
	}
	if got := a.SumMeasured([]string{"com"}, 4); got != 4 {
		t.Errorf("SumMeasured = %d", got)
	}
	if got := a.SumMethod([]string{"com"}, 0, 2, 4); got != 3 {
		t.Errorf("SumMethod NS = %d", got)
	}
	if days := a.Days("com"); len(days) != 10 || days[0] != 0 || days[9] != 9 {
		t.Errorf("Days = %v", days)
	}
}

func TestAddDayOrderEnforced(t *testing.T) {
	refs := oneProviderRefs(t)
	s := syntheticStore(t)
	a := NewAggregator(refs, s, nil)
	if err := a.AddDetections(core.DetectDay(s, "com", 5, refs)); err != nil {
		t.Fatal(err)
	}
	if err := a.AddDetections(core.DetectDay(s, "com", 4, refs)); err == nil {
		t.Error("out-of-order day accepted")
	}
}

func TestClassify(t *testing.T) {
	a := syntheticAgg(t)
	window := simtime.Range{Start: 0, End: 10}
	cases := []struct {
		dom  string
		want UseClass
	}{
		{"a.com", ClassAlwaysOn},
		{"b.com", ClassOnDemand},
		{"c.com", ClassSingle},
		{"bg.com", ClassNotSeen},
	}
	for _, c := range cases {
		if got := a.Classify(0, c.dom, window); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.dom, got, c.want)
		}
	}
	if ivs := a.trackers[0]["b.com"].intervals; len(ivs) != 3 {
		t.Errorf("b.com intervals = %v", ivs)
	}
}

func TestFlux(t *testing.T) {
	a := syntheticAgg(t)
	window := simtime.Range{Start: 0, End: 10}
	bins := a.Flux(0, window, 5)
	if len(bins) != 2 {
		t.Fatalf("bins = %v", bins)
	}
	// a.com: first day 0 (boundary, no influx), last day 9 (boundary, no
	// outflux). b.com: first day 1 → bin 0 influx; last day 8 → bin 1
	// outflux. c.com: first day 3 → bin 0; last day 5 → bin 1.
	if bins[0].In != 2 || bins[0].Out != 0 {
		t.Errorf("bin0 = %+v", bins[0])
	}
	if bins[1].In != 0 || bins[1].Out != 2 {
		t.Errorf("bin1 = %+v", bins[1])
	}
	if bins[0].Delta() != 2 || bins[1].Delta() != -2 {
		t.Error("deltas wrong")
	}
}

func TestOnDemandPeaks(t *testing.T) {
	a := syntheticAgg(t)
	st := a.OnDemandPeaks(0, 3)
	if st.Domains != 1 {
		t.Fatalf("on-demand domains = %d", st.Domains)
	}
	// b.com peaks: lengths 2, 1, 3 → sorted [1 2 3].
	if len(st.Durations) != 3 || st.Durations[0] != 1 || st.Durations[2] != 3 {
		t.Errorf("durations = %v", st.Durations)
	}
	if st.P(0.8) != 3 {
		t.Errorf("P80 = %d", st.P(0.8))
	}
	days, frac := st.CDF()
	if len(days) != 3 || frac[2] != 1.0 {
		t.Errorf("CDF = %v %v", days, frac)
	}
	if math.Abs(frac[0]-1.0/3) > 1e-9 {
		t.Errorf("CDF first = %v", frac[0])
	}
}

func TestDistribution(t *testing.T) {
	a := syntheticAgg(t)
	ns, dps := a.Distribution([]string{"com"})
	if ns["com"] != 1.0 || dps["com"] != 1.0 {
		t.Errorf("distribution = %v %v", ns, dps)
	}
}

func TestMedianWindow(t *testing.T) {
	vals := []float64{1, 1, 100, 1, 1}
	out := MedianWindow(vals, 3)
	if out[2] != 1 {
		t.Errorf("spike survived: %v", out)
	}
	// Even window widened; constant series unchanged.
	out = MedianWindow([]float64{5, 5, 5, 5}, 4)
	for _, v := range out {
		if v != 5 {
			t.Errorf("constant series changed: %v", out)
		}
	}
	if got := MedianWindow(nil, 3); len(got) != 0 {
		t.Error("nil input")
	}
}

func TestDespikeRemovesPlateau(t *testing.T) {
	// 200-day series at level 100 with a 30-day plateau at 300.
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 100
		if i >= 80 && i < 110 {
			vals[i] = 300
		}
	}
	out := Despike(vals, 151, 0.05)
	for i, v := range out {
		if v != 100 {
			t.Fatalf("plateau survived at %d: %v", i, v)
		}
	}
	// Genuine gradual growth survives despiking.
	for i := range vals {
		vals[i] = 100 + float64(i)*0.2
	}
	out = Smooth(vals)
	if out[len(out)-1] < out[0]*1.2 {
		t.Errorf("growth flattened: %v -> %v", out[0], out[len(out)-1])
	}
}

func TestRelative(t *testing.T) {
	out := Relative([]float64{50, 55, 60})
	if out[0] != 1 || math.Abs(out[2]-1.2) > 1e-9 {
		t.Errorf("Relative = %v", out)
	}
	if out := Relative([]float64{0, 5}); out[1] != 0 {
		t.Error("zero-start series should zero out")
	}
}

func TestGrowthPipeline(t *testing.T) {
	// Paper-shaped synthetic: over 550 days the DPS population grows
	// 100 → 124 (the 1.24× of Fig 5) with a 3-day spike and a 40-day
	// plateau injected; the namespace grows 1000 → 1090 (1.09×). The
	// anomalies must be cleaned away, the trends preserved.
	refs := oneProviderRefs(t)
	s := store.New()
	cfAddr := netip.MustParseAddr("104.16.0.1")
	bgAddr := netip.MustParseAddr("100.64.0.9")
	days := 550
	for day := 0; day < days; day++ {
		w := s.NewWriter("com", simtime.Day(day))
		dps := 100 + day*24/(days-1)
		if day >= 150 && day < 153 {
			dps += 2000 // Wix-style spike
		}
		if day >= 300 && day < 340 {
			dps += 800 // multi-week plateau
		}
		total := 1000 + day*90/(days-1)
		for i := 0; i < total; i++ {
			name := domName(i)
			if i < dps {
				w.AddAddr(name, store.KindApexA, cfAddr, []uint32{13335})
			} else {
				w.AddAddr(name, store.KindApexA, bgAddr, []uint32{64601})
			}
		}
		w.Commit()
	}
	a := NewAggregator(refs, s, nil)
	if err := a.Run([]string{"com"}); err != nil {
		t.Fatal(err)
	}
	g := a.Growth([]string{"com"})
	if len(g.Adoption) != days {
		t.Fatalf("series length = %d", len(g.Adoption))
	}
	ag := g.AdoptionGrowth()
	if ag < 1.20 || ag > 1.28 {
		t.Errorf("adoption growth = %.3f, want ≈1.24 (anomalies cleaned)", ag)
	}
	eg := g.ExpansionGrowth()
	if eg < 1.06 || eg > 1.12 {
		t.Errorf("expansion growth = %.3f, want ≈1.09", eg)
	}
	// The spike and plateau must not leak into the smoothed series.
	for i, v := range g.Adoption {
		if v > 1.5 {
			t.Fatalf("anomaly leaked at day %d: %.2f", i, v)
		}
	}
}

func domName(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return string([]byte{letters[i%26], letters[(i/26)%26], letters[(i/676)%26]}) + ".com"
}

func TestSwingsAndAttribution(t *testing.T) {
	a := syntheticAgg(t)
	swings := a.LargestSwings([]string{"com"}, 0, 3)
	if len(swings) == 0 {
		t.Fatal("no swings found")
	}
	// Biggest swing: day 1 (+1: b.com) or day 3/5/6... all ±1 here; just
	// check attribution mechanics on day 1.
	att := a.Attribute([]string{"com"}, 0, 1)
	if att.Joined != 1 || att.Left != 0 {
		t.Fatalf("attribution = %+v", att)
	}
	if len(att.Shared) == 0 || att.Shared[0].SLD != "cloudflare.com" || att.Shared[0].Fraction != 1.0 {
		t.Errorf("shared = %+v", att.Shared)
	}
	// Day 5→6: c.com leaves (last day 5), b.com joins (day 6).
	att = a.Attribute([]string{"com"}, 0, 6)
	if att.Joined != 1 || att.Left != 1 {
		t.Errorf("day 6 attribution = %+v", att)
	}
	// First-day attribution is empty by construction.
	if att := a.Attribute([]string{"com"}, 0, 0); att.Joined != 0 || att.Left != 0 {
		t.Error("day 0 attribution should be empty")
	}
}

// TestAttributeTieBreak: NS SLDs with equal shares are ordered by name,
// not by map iteration, so the attribution reads the same on every call.
func TestAttributeTieBreak(t *testing.T) {
	s := store.New()
	ns := []string{"beta.net", "alpha.net", "beta.net", "gamma.net", "alpha.net", "beta.net", "alpha.net"}
	for day := simtime.Day(0); day < 2; day++ {
		w := s.NewWriter("com", day)
		for i, sld := range ns {
			asn := uint32(64601)
			if day == 1 {
				asn = 13335 // every domain joins on day 1
			}
			w.AddAddr(domName(i), store.KindApexA, netip.MustParseAddr("104.16.0.1"), []uint32{asn})
			w.AddStr(domName(i), store.KindNS, "ns1."+sld)
		}
		w.Commit()
	}
	a := NewAggregator(oneProviderRefs(t), s, []string{"com"})
	if err := a.Run([]string{"com"}); err != nil {
		t.Fatal(err)
	}
	want := []SLDShare{
		{SLD: "alpha.net", Domains: 3, Fraction: 3.0 / 7},
		{SLD: "beta.net", Domains: 3, Fraction: 3.0 / 7},
		{SLD: "gamma.net", Domains: 1, Fraction: 1.0 / 7},
	}
	for i := 0; i < 20; i++ {
		if got := a.Attribute([]string{"com"}, 0, 1).Shared; !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Shared = %+v, want %+v", i, got, want)
		}
	}
}
