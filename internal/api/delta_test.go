package api

import (
	"reflect"
	"slices"
	"testing"

	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// synthPart builds one (source, day) partition as a self-contained
// store with its own dictionary — exactly the shape of a coordinator
// spool — with deterministic detections that exercise method changes,
// gaps, multi-source overlap, and unprotected domains:
//
//   - alpha.com: provider0 CNAME every day except day 2 (a gap), NS
//     added from day 3 on (a method change mid-history).
//   - beta.com: provider0 AS every day except day 2, constant methods —
//     with day 2 unindexed its run packs straight across the hole.
//   - gamma.com: CloudFlare NS from day 1 on.
//   - shared.com: provider0 CNAME in "com", CloudFlare NS in "net" —
//     same-day merges union across sources.
//   - only-<src>.com: detected only in that source.
//   - quiet.com: measured, never protected.
func synthPart(t *testing.T, refs *core.References, src string, day simtime.Day) *store.Store {
	t.Helper()
	p0 := refs.Providers[0]
	cf := slices.IndexFunc(refs.Providers, func(p core.ProviderRefs) bool { return p.Name == "CloudFlare" })
	if cf < 0 {
		t.Fatal("no CloudFlare in ground truth")
	}
	pcf := refs.Providers[cf]

	s := store.New()
	w := s.NewWriter(src, day)
	if day != 2 {
		w.AddStr("alpha.com", store.KindWWWCNAME, "www.alpha.com."+p0.CNAMESLDs[0])
	}
	if day >= 3 {
		w.AddStr("alpha.com", store.KindNS, "ns1."+p0.NSSLDs[0])
	}
	if day != 2 {
		w.AddAddr("beta.com", store.KindApexA, mustAddr("192.0.2.7"), []uint32{p0.ASNs[0]})
	}
	if day >= 1 {
		w.AddStr("gamma.com", store.KindNS, "ada.ns."+pcf.NSSLDs[0])
	}
	if src == "com" {
		w.AddStr("shared.com", store.KindWWWCNAME, "www.shared.com."+p0.CNAMESLDs[0])
	} else {
		w.AddStr("shared.com", store.KindNS, "ben.ns."+pcf.NSSLDs[0])
	}
	w.AddStr("only-"+src+".com", store.KindWWWCNAME, "cdn."+p0.CNAMESLDs[0])
	w.AddAddr("quiet.com", store.KindApexA, mustAddr("198.51.100.9"), nil)
	w.Commit()
	return s
}

type partKey struct {
	src string
	day simtime.Day
}

// buildBoth materializes the same partitions two ways: folded into one
// store (the full-rebuild reference) and as per-partition spools with
// their detections (the delta path).
func buildBoth(t *testing.T, refs *core.References, parts []partKey) (*store.Store, []PartitionUpdate) {
	t.Helper()
	all := store.New()
	ups := make([]PartitionUpdate, 0, len(parts))
	for _, pk := range parts {
		spool := synthPart(t, refs, pk.src, pk.day)
		all.Absorb(spool)
		ups = append(ups, PartitionUpdate{
			Source: pk.src,
			Day:    pk.day,
			Det:    core.DetectDay(spool, pk.src, pk.day, refs),
		})
	}
	return all, ups
}

// assertIndexEqual demands the applied index is indistinguishable from
// a full rebuild: identical internal columns and interval packing, and
// identical public views.
func assertIndexEqual(t *testing.T, want, got *Index) {
	t.Helper()
	if !reflect.DeepEqual(want.days, got.days) {
		t.Fatalf("days: want %v got %v", want.days, got.days)
	}
	if !reflect.DeepEqual(want.sources, got.sources) {
		t.Fatalf("sources: want %v got %v", want.sources, got.sources)
	}
	if !reflect.DeepEqual(want.measured, got.measured) {
		t.Fatalf("measured: want %v got %v", want.measured, got.measured)
	}
	if !reflect.DeepEqual(want.anyUse, got.anyUse) {
		t.Fatalf("anyUse: want %v got %v", want.anyUse, got.anyUse)
	}
	if !reflect.DeepEqual(want.series, got.series) {
		t.Fatalf("series: want %v got %v", want.series, got.series)
	}
	if !reflect.DeepEqual(want.smoothed, got.smoothed) {
		t.Fatalf("smoothed differ")
	}
	if want.partitions != got.partitions {
		t.Fatalf("partitions: want %d got %d", want.partitions, got.partitions)
	}
	if len(want.domains) != len(got.domains) {
		t.Fatalf("domain count: want %d got %d", len(want.domains), len(got.domains))
	}
	for dom, we := range want.domains {
		if ge, ok := got.domains[dom]; !ok || !reflect.DeepEqual(we.ivs, ge.ivs) {
			t.Fatalf("domain %s intervals: want %+v got %+v", dom, we.ivs, got.intervals(dom))
		}
	}
	if want.exampleDomain != got.exampleDomain {
		t.Fatalf("example domain: want %q got %q", want.exampleDomain, got.exampleDomain)
	}
	// Public views agree too (belt and braces over the internals).
	for _, dom := range want.Domains() {
		wh, _ := want.Domain(dom)
		gh, ok := got.Domain(dom)
		if !ok || !reflect.DeepEqual(wh, gh) {
			t.Fatalf("Domain(%s): want %+v got %+v", dom, wh, gh)
		}
	}
	for i := range want.refs.Providers {
		ws, _ := want.Series(want.refs.Providers[i].Name)
		gs, _ := got.Series(want.refs.Providers[i].Name)
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("Series(%s): want %+v got %+v", want.refs.Providers[i].Name, ws, gs)
		}
	}
	for _, d := range want.Days() {
		wd, _ := want.Day(d)
		gd, ok := got.Day(d)
		if !ok || !reflect.DeepEqual(wd, gd) {
			t.Fatalf("Day(%v): want %+v got %+v", d, wd, gd)
		}
	}
}

// applyCase builds a base index from base partitions, applies the rest
// as one delta batch, and checks the result against a full rebuild over
// everything.
func applyCase(t *testing.T, base, added []partKey) (*Index, *Index, *Delta) {
	t.Helper()
	refs := core.MustGroundTruth()
	baseStore, _ := buildBoth(t, refs, base)
	fullStore, _ := buildBoth(t, refs, append(append([]partKey{}, base...), added...))
	_, ups := buildBoth(t, refs, added)

	old := NewIndex(baseStore, refs)
	got, delta := old.Apply(ups)
	want := NewIndex(fullStore, refs)
	assertIndexEqual(t, want, got)
	if delta == nil || delta.Epoch != old.Epoch()+1 || got.Epoch() != delta.Epoch {
		t.Fatalf("epoch: delta %+v, old %d, got %d", delta, old.Epoch(), got.Epoch())
	}
	if delta.Applied != len(added) {
		t.Fatalf("delta.Applied = %d, want %d", delta.Applied, len(added))
	}
	return old, got, delta
}

func TestApplyPureAppend(t *testing.T) {
	base := []partKey{{"com", 0}, {"com", 1}, {"com", 2}}
	old, _, delta := applyCase(t, base, []partKey{{"com", 3}})
	if !reflect.DeepEqual(delta.Days, []simtime.Day{3}) || !reflect.DeepEqual(delta.NewDays, []simtime.Day{3}) {
		t.Fatalf("delta days = %+v", delta)
	}
	// alpha gains its NS method on day 3, beta misses odd days.
	for _, dom := range []string{"alpha.com", "gamma.com", "shared.com", "only-com.com"} {
		if !delta.Domains[dom] {
			t.Errorf("delta misses %s", dom)
		}
	}
	if delta.Domains["quiet.com"] {
		t.Error("unprotected domain marked touched")
	}
	// The old index is untouched: day 3 must still be unknown to it.
	if _, ok := old.Day(3); ok {
		t.Fatal("Apply mutated the receiver")
	}
}

func TestApplyNewSourceExistingDay(t *testing.T) {
	base := []partKey{{"com", 0}, {"com", 1}}
	_, _, delta := applyCase(t, base, []partKey{{"net", 1}})
	if len(delta.NewDays) != 0 || !reflect.DeepEqual(delta.Days, []simtime.Day{1}) {
		t.Fatalf("delta days = %+v", delta)
	}
}

func TestApplyBackfillDay(t *testing.T) {
	// beta.com is detected on days 0, 1 and 3 with constant methods
	// (day 2 is its gap): with days {0,1,3} indexed those pack into one
	// run [0..3], and backfilling day 2 must split it even though day 2
	// brings beta no detection at all.
	base := []partKey{{"com", 0}, {"com", 1}, {"com", 3}}
	_, got, delta := applyCase(t, base, []partKey{{"com", 2}})
	if !delta.Domains["beta.com"] {
		t.Fatal("spanning domain not repacked")
	}
	h, _ := got.Domain("beta.com")
	// Detected on 0, 1, 3 but not 2.
	if h.Days != 3 {
		t.Fatalf("beta days = %d, want 3 (%+v)", h.Days, h)
	}
	if n := len(h.Providers[0].Intervals); n != 2 {
		t.Fatalf("beta intervals = %d, want 2 (%+v)", n, h)
	}
}

func TestApplyMixedBatch(t *testing.T) {
	base := []partKey{{"com", 0}, {"com", 1}, {"com", 4}}
	applyCase(t, base, []partKey{
		{"com", 2}, // backfill
		{"net", 1}, // new source, existing day
		{"com", 5}, // pure append
		{"net", 5}, // second source on the appended day
	})
}

func TestApplyFromEmptyIndexConverges(t *testing.T) {
	// The -follow cold start: an empty index catches up partition by
	// partition and must land exactly where a batch build would.
	refs := core.MustGroundTruth()
	parts := []partKey{{"com", 0}, {"net", 0}, {"com", 1}, {"com", 2}, {"net", 2}}
	fullStore, ups := buildBoth(t, refs, parts)

	idx := NewIndex(store.New(), refs)
	for i, u := range ups {
		next, delta := idx.Apply([]PartitionUpdate{u})
		if delta.Epoch != uint64(i+1) {
			t.Fatalf("epoch after %d applies = %d", i+1, delta.Epoch)
		}
		idx = next
	}
	assertIndexEqual(t, NewIndex(fullStore, refs), idx)
}

func TestApplyEmptyBatch(t *testing.T) {
	refs := core.MustGroundTruth()
	baseStore, _ := buildBoth(t, refs, []partKey{{"com", 0}})
	idx := NewIndex(baseStore, refs)
	next, delta := idx.Apply(nil)
	if next != idx || delta != nil {
		t.Fatalf("empty batch: next=%p idx=%p delta=%+v", next, idx, delta)
	}
}
