package analysis

import (
	"context"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"dpsadopt/internal/core"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// attributeOracle is the string-keyed attribution AttributeSwing
// replaced, kept verbatim as the reference: name sets per day, every row
// materialised through ForEachRow.
func (a *Aggregator) attributeOracle(sources []string, p int, day simtime.Day) Attribution {
	days := a.Days(sources[0])
	att := Attribution{Swing: Swing{Provider: p, Day: day}}
	idx := -1
	for i, d := range days {
		if d == day {
			idx = i
			break
		}
	}
	if idx <= 0 {
		return att
	}
	prevDay := days[idx-1]

	prev := make(map[string]bool)
	cur := make(map[string]bool)
	for _, src := range sources {
		dp := core.DetectDay(a.Store, src, prevDay, a.Refs)
		dp.EachUse(p, func(id uint32, _ core.Method) { prev[dp.DomainName(id)] = true })
		dc := core.DetectDay(a.Store, src, day, a.Refs)
		dc.EachUse(p, func(id uint32, _ core.Method) { cur[dc.DomainName(id)] = true })
	}
	changed := make(map[string]bool)
	for dom := range cur {
		if !prev[dom] {
			att.Joined++
			changed[dom] = true
		}
	}
	for dom := range prev {
		if !cur[dom] {
			att.Left++
			changed[dom] = true
		}
	}
	att.Swing.Delta = att.Joined - att.Left
	if len(changed) == 0 {
		return att
	}

	// Fingerprint the changed set by NS SLD. A domain that vanished has
	// its NS rows on the previous day.
	sldCount := make(map[string]int)
	counted := make(map[string]bool)
	for _, d := range []simtime.Day{day, prevDay} {
		for _, src := range sources {
			a.Store.ForEachRow(src, d, func(r store.Row) {
				if r.Kind != store.KindNS || !changed[r.Domain] || counted[r.Domain] {
					return
				}
				sldCount[core.SLD(r.Str)]++
				counted[r.Domain] = true
			})
		}
	}
	for sld, n := range sldCount {
		att.Shared = append(att.Shared, SLDShare{
			SLD:      sld,
			Domains:  n,
			Fraction: float64(n) / float64(len(changed)),
		})
	}
	sort.Slice(att.Shared, func(i, j int) bool {
		if att.Shared[i].Domains != att.Shared[j].Domains {
			return att.Shared[i].Domains > att.Shared[j].Domains
		}
		return att.Shared[i].SLD < att.Shared[j].SLD
	})
	return att
}

// TestAttributeMatchesOracle demands the ID-native attribution reproduce
// the string-keyed one for all nine providers on every pair of adjacent
// measured days: the rise to the Wix / Incapsula peak, into day index 10,
// into a quiet day, and the long gaps between those groups.
func TestAttributeMatchesOracle(t *testing.T) {
	w, err := worldsim.New(worldsim.DefaultConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	pipe := measure.New(w, s, measure.Config{Mode: measure.ModeDirect, Workers: 2})
	quiet, peak := simtime.FromDate(2015, 7, 25), simtime.FromDate(2015, 3, 5)
	for _, d := range []simtime.Day{peak - 3, peak - 2, peak - 1, peak, 9, 10, quiet - 1, quiet} {
		if err := pipe.RunDay(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	g := worldsim.GTLDs()
	a := NewAggregator(core.MustGroundTruth(), s, g)
	if err := a.Run(g); err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, day := range a.Days(g[0])[1:] {
		for p := range a.Refs.Providers {
			got, want := a.Attribute(g, p, day), a.attributeOracle(g, p, day)
			changed += want.Joined + want.Left
			got.Swing.Prev = 0 // the oracle predates the field
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s:\n got %+v\nwant %+v", day, a.Refs.Providers[p].Name, got, want)
			}
		}
	}
	if changed == 0 {
		t.Fatal("no domain changed provider on any pair: the comparison is vacuous")
	}
}

// TestLargestSwingsSkipDegradedDays: a lossy day's trough is not a swing
// on either side of it, and Prev names the day each swing is measured
// from.
func TestLargestSwingsSkipDegradedDays(t *testing.T) {
	s := store.New()
	for day := simtime.Day(0); day < 6; day++ {
		n := 10 + int(day) // steady +1 a day...
		if day == 3 {
			n = 2 // ...but for a day that lost most of its answers
		}
		w := s.NewWriter("com", day)
		for i := 0; i < n; i++ {
			w.AddAddr(domName(i), store.KindApexA, netip.MustParseAddr("104.16.0.1"), []uint32{13335})
		}
		w.Commit()
	}
	a := NewAggregator(oneProviderRefs(t), s, []string{"com"})
	if err := a.Run([]string{"com"}); err != nil {
		t.Fatal(err)
	}
	want := []Swing{{Prev: 3, Day: 4, Delta: 12}, {Prev: 2, Day: 3, Delta: -10}}
	if sw := a.LargestSwings([]string{"com"}, 0, 2); !reflect.DeepEqual(sw, want) {
		t.Fatalf("undegraded: largest swings = %+v, want the two flanks of the day-3 trough", sw)
	}
	a.MarkDegraded(3)
	swings := a.LargestSwings([]string{"com"}, 0, 10)
	if len(swings) != 3 {
		t.Fatalf("swings = %+v, want the three pairs clear of day 3", swings)
	}
	for _, sw := range swings {
		if sw.Day == 3 || sw.Prev == 3 || sw.Delta != 1 || sw.Prev != sw.Day-1 {
			t.Errorf("swing %+v touches the degraded day", sw)
		}
	}
}
