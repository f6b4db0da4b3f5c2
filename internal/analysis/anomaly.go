package analysis

import (
	"sort"

	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// This file implements §4.4.1: tracing the large per-provider anomalies to
// the third parties that cause them. A swing is a large day-over-day
// change in a provider's use count; attribution diffs the provider's
// domain sets on the two days and summarises what the joining (or
// leaving) domains share — their NS SLD, the paper's fingerprint for
// "Wix", "ENOM", "registrar-servers.com", and friends.

// Swing is one large day-over-day change.
type Swing struct {
	Provider int
	Day      simtime.Day // the later day of the pair
	Delta    int         // use count change from the previous day
}

// LargestSwings returns the topN biggest absolute day-over-day changes of
// provider p across the summed sources.
func (a *Aggregator) LargestSwings(sources []string, p, topN int) []Swing {
	days := a.Days(sources[0])
	var swings []Swing
	for i := 1; i < len(days); i++ {
		prev := a.SumProvider(sources, p, days[i-1])
		cur := a.SumProvider(sources, p, days[i])
		if d := cur - prev; d != 0 {
			swings = append(swings, Swing{Provider: p, Day: days[i], Delta: d})
		}
	}
	sort.Slice(swings, func(i, j int) bool { return abs(swings[i].Delta) > abs(swings[j].Delta) })
	if len(swings) > topN {
		swings = swings[:topN]
	}
	return swings
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// SLDShare is one attribution row: a shared NS SLD and how many of the
// changed domains carry it.
type SLDShare struct {
	SLD     string
	Domains int
	// Fraction of the changed set bearing this SLD.
	Fraction float64
}

// Attribution explains one swing.
type Attribution struct {
	Swing Swing
	// Joined/Left are the sizes of the domain-set difference.
	Joined, Left int
	// Shared summarises the NS SLDs of the changed domains, largest
	// first.
	Shared []SLDShare
}

// Attribute diffs provider p's domain sets between day and the previous
// measured day and summarises the changed domains' NS SLDs.
func (a *Aggregator) Attribute(sources []string, p int, day simtime.Day) Attribution {
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
