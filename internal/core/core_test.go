package core

import (
	"context"
	"math"
	"math/rand"
	"net/netip"

	"reflect"
	"slices"
	"strings"
	"testing"

	"dpsadopt/internal/measure"
	"dpsadopt/internal/pfx2as"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

func TestSLD(t *testing.T) {
	cases := []struct{ in, want string }{
		{"foo.incapdns.net", "incapdns.net"},
		{"a.b.edgekey.net", "edgekey.net"},
		{"kate.ns.cloudflare.com", "cloudflare.com"},
		{"example.com", "example.com"},
		{"com", "com"},
		{"www.example.co.uk", "example.co.uk"},
		{"example.co.uk", "example.co.uk"},
		{"co.uk", "co.uk"},
		{"deep.sub.domain.example.org", "example.org"},
		// Edge cases: empty input, the root, single labels, and names in
		// canonical absolute form (trailing root dot).
		{"", ""},
		{".", ""},
		{"localhost", "localhost"},
		{"com.", "com"},
		{"example.com.", "example.com"},
		{"www.example.com.", "example.com"},
		{"www.example.co.uk.", "example.co.uk"},
		{"co.uk.", "co.uk"},
		{".com", ".com"}, // degenerate empty leading label, below a TLD
	}
	for _, c := range cases {
		if got := SLD(c.in); got != c.want {
			t.Errorf("SLD(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSLDDoesNotAllocate(t *testing.T) {
	names := []string{"a.b.c.edgekey.net", "www.example.co.uk.", "example.com", "com"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, n := range names {
			_ = SLD(n)
		}
	})
	if allocs != 0 {
		t.Errorf("SLD allocates %.1f times per batch, want 0", allocs)
	}
}

func TestMethodString(t *testing.T) {
	if (RefAS | RefNS).String() != "AS+NS" {
		t.Errorf("got %q", (RefAS | RefNS).String())
	}
	if Method(0).String() != "none" {
		t.Error("zero method")
	}
	if !(RefAS | RefCNAME).Has(RefAS) || (RefAS).Has(RefCNAME) {
		t.Error("Has wrong")
	}
}

func TestReferencesIndexes(t *testing.T) {
	refs := MustGroundTruth()
	if refs.NumProviders() != worldsim.NumProviders {
		t.Fatalf("providers = %d", refs.NumProviders())
	}
	if p, ok := refs.MatchASN(13335); !ok || refs.Providers[p].Name != "CloudFlare" {
		t.Error("ASN 13335 not CloudFlare")
	}
	if p, ok := refs.byCNAME[SLD("foo.incapdns.net")]; !ok || refs.Providers[p].Name != "Incapsula" {
		t.Error("incapdns.net not Incapsula")
	}
	if p, ok := refs.byNS[SLD("kate.ns.cloudflare.com")]; !ok || refs.Providers[p].Name != "CloudFlare" {
		t.Error("cloudflare.com NS not CloudFlare")
	}
	if _, ok := refs.byNS[SLD("ns1.hostco3.net")]; ok {
		t.Error("hoster NS matched a provider")
	}
	if _, ok := refs.MatchASN(14618); ok {
		t.Error("AWS matched a provider")
	}
}

func TestNewReferencesRejectsCollisions(t *testing.T) {
	_, err := NewReferences([]ProviderRefs{
		{Name: "A", ASNs: []uint32{1}},
		{Name: "B", ASNs: []uint32{1}},
	})
	if err == nil {
		t.Error("duplicate ASN accepted")
	}
	_, err = NewReferences([]ProviderRefs{
		{Name: "A", NSSLDs: []string{"x.net"}},
		{Name: "B", NSSLDs: []string{"x.net"}},
	})
	if err == nil {
		t.Error("duplicate NS SLD accepted")
	}
}

// TestMatchASNAgreesWithMap holds MatchASN to the byASN map it was built
// from: every claimed ASN, the edges of the dense table (beyond which no
// ASN is claimed, so MatchASN answers without the map) and random ASNs —
// for the ground-truth table, which has a dense table, and for one whose
// largest ASN is too big for it, where the map still answers.
func TestMatchASNAgreesWithMap(t *testing.T) {
	sparse, err := NewReferences([]ProviderRefs{
		{Name: "A", ASNs: []uint32{7, 1 << 20}},
		{Name: "B", ASNs: []uint32{64512, math.MaxUint32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dense := MustGroundTruth()
	if dense.asnDense == nil || sparse.asnDense != nil {
		t.Fatalf("dense table: ground truth %v, sparse %v", dense.asnDense != nil, sparse.asnDense != nil)
	}
	rng := rand.New(rand.NewSource(20))
	for _, refs := range []*References{dense, sparse} {
		n := uint32(len(refs.asnDense))
		probes := []uint32{0, n - 1, n, n + 1, 1<<20 - 1, 1 << 20, 1<<20 + 1, math.MaxUint32}
		for a := range refs.byASN {
			probes = append(probes, a, a-1, a+1)
		}
		for i := 0; i < 10000; i++ {
			probes = append(probes, rng.Uint32()>>uint(rng.Intn(32))) // every magnitude
		}
		for _, a := range probes {
			want, wantOK := refs.byASN[a]
			if got, ok := refs.MatchASN(a); ok != wantOK || ok && got != want {
				t.Fatalf("MatchASN(%d) = %d, %v; byASN says %d, %v", a, got, ok, want, wantOK)
			}
		}
	}
}

// measuredWorld builds a world and measures a few days into a store.
var (
	cachedWorld *worldsim.World
	cachedStore *store.Store
)

// quietDay (2015-07-25) has no third-party episode in flight — the
// discovery procedure assumes it runs on a day without large anomalies
// (the paper's analysis separated always-on from on-demand the same way).
var quietDay = simtime.FromDate(2015, 7, 25)

// testDays: the quiet day plus the Wix March 2015 peak.
var testDays = []simtime.Day{quietDay, simtime.FromDate(2015, 3, 5)}

func measuredWorld(t testing.TB) (*worldsim.World, *store.Store) {
	t.Helper()
	if cachedWorld != nil {
		return cachedWorld, cachedStore
	}
	w, err := worldsim.New(worldsim.DefaultConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	p := measure.New(w, s, measure.Config{Mode: measure.ModeDirect, Workers: 4})
	for _, d := range testDays {
		if err := p.RunDay(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	cachedWorld, cachedStore = w, s
	return w, s
}

func dayTable(t testing.TB, w *worldsim.World, day simtime.Day) pfx2as.Table {
	t.Helper()
	entries, err := pfx2as.Parse(strings.NewReader(w.RIBForDay(day).Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	return pfx2as.NewWalk(entries)
}

func TestDetectDayFindsCustomers(t *testing.T) {
	w, s := measuredWorld(t)
	refs := MustGroundTruth()
	day := quietDay
	cf := providerIndex(refs, "CloudFlare")
	det := DetectDay(s, "com", day, refs)
	if det.Count(cf) == 0 {
		t.Fatal("no CloudFlare domains detected in .com")
	}
	// Cross-check against the world's ground truth for .com.
	want := 0
	tbl := dayTable(t, w, day)
	for _, d := range w.Domains {
		if d.TLD != "com" || !d.Life.Contains(day) {
			continue
		}
		st := w.StateFor(d, day)
		if !st.Exists || st.Unmeasurable {
			continue
		}
		if usesProvider(w, tbl, d, day, worldsim.CloudFlare) {
			want++
		}
	}
	if det.Count(cf) != want {
		t.Errorf("CloudFlare .com count = %d, ground truth %d", det.Count(cf), want)
	}
	if det.DomainsMeasured == 0 {
		t.Error("DomainsMeasured = 0")
	}
}

// providerIndex finds a provider of refs by name.
func providerIndex(refs *References, name string) int {
	return slices.IndexFunc(refs.Providers, func(p ProviderRefs) bool { return p.Name == name })
}

// uses is provider p's detections as domain name → methods.
func uses(d *DayDetections, p int) map[string]Method {
	out := make(map[string]Method, d.Count(p))
	d.EachUse(p, func(id uint32, m Method) { out[d.dict.Str(id)] = m })
	return out
}

// usesProvider recomputes expected detection from world state.
func usesProvider(w *worldsim.World, tbl pfx2as.Table, d *worldsim.Domain, day simtime.Day, provider int) bool {
	st := w.StateFor(d, day)
	refs := MustGroundTruth()
	for _, a := range append(append([]netip.Addr{}, st.ApexA...), st.WWWA...) {
		if origins, ok := tbl.Lookup(a); ok {
			for _, o := range origins {
				if p, ok := refs.MatchASN(o); ok && p == provider {
					return true
				}
			}
		}
	}
	if st.WWWCNAME != "" {
		if p, ok := refs.byCNAME[SLD(st.WWWCNAME)]; ok && p == provider {
			return true
		}
	}
	for _, ns := range st.NSHosts {
		if p, ok := refs.byNS[SLD(ns)]; ok && p == provider {
			return true
		}
	}
	return false
}

func TestDetectMethodCombinations(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	day := quietDay
	// CloudFlare: most customers are NS-delegated AND routed (NS+AS); the
	// NS share must be large (≈75% per §4.3).
	cf := providerIndex(refs, "CloudFlare")
	det := DetectDay(s, "com", day, refs)
	total := det.Count(cf)
	ns := 0
	for _, m := range uses(det, cf) {
		if m.Has(RefNS) {
			ns++
		}
	}
	if total == 0 {
		t.Fatal("no CloudFlare detections")
	}
	frac := float64(ns) / float64(total)
	if frac < 0.55 || frac > 0.9 {
		t.Errorf("CloudFlare NS share = %.2f (%d/%d), want ≈0.75", frac, ns, total)
	}
	// Verisign NS-only customers: NS reference without AS reference.
	vs := providerIndex(refs, "Verisign")
	nsOnly := 0
	for _, m := range uses(det, vs) {
		if m.Has(RefNS) && !m.Has(RefAS) {
			nsOnly++
		}
	}
	if nsOnly == 0 {
		t.Error("no Verisign NS-only (managed DNS) domains detected")
	}
}

func TestDetectWixPeak(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	inc := providerIndex(refs, "Incapsula")
	quiet := DetectDay(s, "com", quietDay, refs)
	peak := DetectDay(s, "com", simtime.FromDate(2015, 3, 5), refs)
	if peak.Count(inc) <= quiet.Count(inc)*3 {
		t.Errorf("Incapsula peak %d vs quiet %d: anomaly missing", peak.Count(inc), quiet.Count(inc))
	}
	// Wix peak domains reference Incapsula by AS only (no CNAME, no NS).
	asOnly := 0
	for _, m := range uses(peak, inc) {
		if m == RefAS {
			asOnly++
		}
	}
	if asOnly == 0 {
		t.Error("no AS-only Incapsula references at the Wix peak")
	}
}

func TestDiscoveryRecoversTable2(t *testing.T) {
	w, s := measuredWorld(t)
	day := quietDay
	table := dayTable(t, w, day)
	probe := func(sld string) (netip.Addr, bool) { return w.ProbeApex(sld, day) }
	truth := MustGroundTruth()

	for i := range truth.Providers {
		want := truth.Providers[i]
		got, err := Discover(s, worldsim.GTLDs(), day, w.Registry, want.Name, table, probe, DiscoveryConfig{MinSupport: 1, MinASSupport: 1})
		if err != nil {
			t.Errorf("%s: %v", want.Name, err)
			continue
		}
		if !reflect.DeepEqual(got.ASNs, want.ASNs) {
			t.Errorf("%s ASNs = %v, want %v", want.Name, got.ASNs, want.ASNs)
		}
		if !reflect.DeepEqual(got.CNAMESLDs, want.CNAMESLDs) {
			t.Errorf("%s CNAME SLDs = %v, want %v", want.Name, got.CNAMESLDs, want.CNAMESLDs)
		}
		if !reflect.DeepEqual(got.NSSLDs, want.NSSLDs) {
			t.Errorf("%s NS SLDs = %v, want %v", want.Name, got.NSSLDs, want.NSSLDs)
		}
	}
}

func TestDiscoverUnknownProvider(t *testing.T) {
	w, s := measuredWorld(t)
	table := dayTable(t, w, quietDay)
	_, err := Discover(s, worldsim.GTLDs(), quietDay, w.Registry, "NoSuchProvider", table, nil, DiscoveryConfig{})
	if err == nil {
		t.Error("unknown provider accepted")
	}
}

// TestDetectDayMatchesBaseline demands the ID-native engine reproduce
// the string-keyed reference implementation exactly — same measured
// count, same any-provider count, and the same domain → methods map for
// every provider on every (source, day) partition of the measured world.
func TestDetectDayMatchesBaseline(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	checked := 0
	for _, src := range s.Sources() {
		for _, day := range s.Days(src) {
			id := DetectDay(s, src, day, refs)
			base := DetectDayBaseline(s, src, day, refs)
			if id.DomainsMeasured != base.DomainsMeasured {
				t.Errorf("%s %s: DomainsMeasured = %d, baseline %d",
					src, day, id.DomainsMeasured, base.DomainsMeasured)
			}
			if id.CountAny() != base.CountAny() {
				t.Errorf("%s %s: CountAny = %d, baseline %d", src, day, id.CountAny(), base.CountAny())
			}
			for p := range refs.Providers {
				got := uses(id, p)
				want := base.Uses[p]
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s %s: uses diverge (got %d, want %d domains)",
						src, day, refs.Providers[p].Name, len(got), len(want))
				}
				if id.Count(p) != len(want) {
					t.Errorf("%s %s %s: Count = %d, want %d", src, day, refs.Providers[p].Name, id.Count(p), len(want))
				}
				if len(want) > 0 {
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no provider had detections; agreement proves nothing")
	}
}

// TestDomainsMeasuredInterleaved is the regression test for the
// transition-counting bug: when a domain's rows arrive through separate
// writer commits with another domain in between, its rows interleave in
// the block and run transitions overcount. The ID-set count must stay
// exact.
func TestDomainsMeasuredInterleaved(t *testing.T) {
	s := store.New()
	day := simtime.Day(3)
	w1 := s.NewWriter("com", day)
	w1.AddStr("alpha.com", store.KindNS, "ns1.hoster.net")
	w1.Commit()
	w2 := s.NewWriter("com", day)
	w2.AddStr("beta.com", store.KindNS, "ns1.hoster.net")
	w2.Commit()
	// alpha.com's remaining rows land after beta.com's: interleaved runs.
	w3 := s.NewWriter("com", day)
	w3.AddStr("alpha.com", store.KindNS, "ns2.hoster.net")
	w3.Commit()

	refs := MustGroundTruth()
	det := DetectDay(s, "com", day, refs)
	if det.DomainsMeasured != 2 {
		t.Errorf("DomainsMeasured = %d, want 2 (interleaved runs must not double-count)", det.DomainsMeasured)
	}
	// Document what the baseline approximation does on the same block:
	// three runs, so it overcounts — which is exactly why DetectDay
	// switched to the ID set.
	base := DetectDayBaseline(s, "com", day, refs)
	if base.DomainsMeasured != 3 {
		t.Errorf("baseline DomainsMeasured = %d, want 3 (run transitions)", base.DomainsMeasured)
	}
}

// TestDetectDayMergesInterleavedMethods checks that a domain whose
// references toward one provider are split across interleaved commits
// still collapses to a single entry with the union of methods.
func TestDetectDayMergesInterleavedMethods(t *testing.T) {
	s := store.New()
	day := simtime.Day(5)
	w1 := s.NewWriter("com", day)
	w1.AddStr("split.com", store.KindNS, "kate.ns.cloudflare.com")
	w1.Commit()
	w2 := s.NewWriter("com", day)
	w2.AddStr("other.com", store.KindNS, "ns9.hoster.net")
	w2.Commit()
	w3 := s.NewWriter("com", day)
	w3.AddAddr("split.com", store.KindApexA, netip.MustParseAddr("104.16.0.9"), []uint32{13335})
	w3.Commit()

	refs := MustGroundTruth()
	cf := providerIndex(refs, "CloudFlare")
	det := DetectDay(s, "com", day, refs)
	if det.Count(cf) != 1 {
		t.Fatalf("CloudFlare count = %d, want 1", det.Count(cf))
	}
	if m := uses(det, cf)["split.com"]; m != RefNS|RefAS {
		t.Errorf("split.com methods = %v, want NS+AS", m)
	}
	if det.CountAny() != 1 {
		t.Errorf("CountAny = %d, want 1", det.CountAny())
	}
}

// TestDetectRangeMatchesSequential runs the bounded worker pool over
// every partition of the measured world and demands result parity (and
// input-order results) with sequential DetectDay.
func TestDetectRangeMatchesSequential(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	parts := Partitions(s)
	if len(parts) < 2 {
		t.Fatalf("measured world has %d partitions; want several", len(parts))
	}
	for _, workers := range []int{1, 3, 16} {
		dets, _ := DetectRangeStats(context.Background(), s, parts, refs, workers)
		if len(dets) != len(parts) {
			t.Fatalf("workers=%d: %d results for %d partitions", workers, len(dets), len(parts))
		}
		for i, det := range dets {
			if det == nil {
				t.Fatalf("workers=%d: nil detection for %v", workers, parts[i])
			}
			if det.Source != parts[i].Source || det.Day != parts[i].Day {
				t.Fatalf("workers=%d: result %d is (%s, %s), want %v",
					workers, i, det.Source, det.Day, parts[i])
			}
			seq := DetectDay(s, parts[i].Source, parts[i].Day, refs)
			if det.DomainsMeasured != seq.DomainsMeasured || det.CountAny() != seq.CountAny() {
				t.Errorf("workers=%d %v: measured/any = %d/%d, want %d/%d", workers, parts[i],
					det.DomainsMeasured, det.CountAny(), seq.DomainsMeasured, seq.CountAny())
			}
			for p := range refs.Providers {
				if det.Count(p) != seq.Count(p) {
					t.Errorf("workers=%d %v p=%d: count %d, want %d",
						workers, parts[i], p, det.Count(p), seq.Count(p))
				}
			}
		}
	}
}

// TestDetectRangeCancelled: a pre-cancelled context yields nil slots
// rather than blocking.
func TestDetectRangeCancelled(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dets, _ := DetectRangeStats(ctx, s, Partitions(s), refs, 2)
	for _, det := range dets {
		if det != nil {
			t.Fatal("cancelled DetectRange still produced detections")
		}
	}
}

// TestEachUseOrdered: EachUse yields ascending domain IDs (the packed
// span invariant downstream merges rely on).
func TestEachUseOrdered(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	det := DetectDay(s, "com", quietDay, refs)
	for p := range refs.Providers {
		last := -1
		det.EachUse(p, func(id uint32, m Method) {
			if int(id) <= last {
				t.Fatalf("provider %d: EachUse out of order (%d after %d)", p, id, last)
			}
			if m == 0 {
				t.Fatalf("provider %d: empty method bits for id %d", p, id)
			}
			last = int(id)
		})
	}
}

// TestForgetRebuildsMatcher: Forget drops the per-dictionary matcher (and
// with it the References' hold on the dictionary); forgetting a dictionary
// that is still in use is harmless — the next detection builds a fresh
// matcher and finds the same thing.
func TestForgetRebuildsMatcher(t *testing.T) {
	_, s := measuredWorld(t)
	refs := MustGroundTruth()
	dict, err := s.SharedDict()
	if err != nil {
		t.Fatal(err)
	}
	before := DetectDay(s, "com", quietDay, refs)
	first := refs.ForDict(dict)
	if len(refs.matchers) != 1 {
		t.Fatalf("%d matchers cached after one store, want 1", len(refs.matchers))
	}
	refs.Forget(dict)
	if len(refs.matchers) != 0 {
		t.Fatalf("%d matchers cached after Forget, want 0", len(refs.matchers))
	}
	refs.Forget(dict) // forgetting twice, or an unknown dictionary, is a no-op
	after := DetectDay(s, "com", quietDay, refs)
	if refs.ForDict(dict) == first {
		t.Error("detection after Forget reused the forgotten matcher")
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("detections differ after Forget: any %d vs %d", before.CountAny(), after.CountAny())
	}
	if before.CountAny() == 0 {
		t.Error("nothing detected: the comparison proves nothing")
	}
}
