package analysis

import (
	"slices"
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
	Prev     simtime.Day // the previous measured day
	Day      simtime.Day // the later day of the pair
	Delta    int         // use count change from the previous day
}

// LargestSwings returns the topN biggest absolute day-over-day changes of
// provider p across the summed sources. A pair that touches a degraded
// day is no swing: the change is in the measurement, not in the use.
func (a *Aggregator) LargestSwings(sources []string, p, topN int) []Swing {
	days := a.Days(sources[0])
	var swings []Swing
	for i := 1; i < len(days); i++ {
		if a.degraded[days[i-1]] || a.degraded[days[i]] {
			continue
		}
		prev := a.SumProvider(sources, p, days[i-1])
		cur := a.SumProvider(sources, p, days[i])
		if d := cur - prev; d != 0 {
			swings = append(swings, Swing{Provider: p, Prev: days[i-1], Day: days[i], Delta: d})
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

// Attribute explains provider p's change into day from the previous
// aggregated day (an empty attribution when there is none).
func (a *Aggregator) Attribute(sources []string, p int, day simtime.Day) Attribution {
	days := a.Days(sources[0])
	i, ok := slices.BinarySearch(days, day)
	if !ok || i == 0 {
		return Attribution{Swing: Swing{Provider: p, Day: day}}
	}
	return a.AttributeSwing(sources, Swing{Provider: p, Prev: days[i-1], Day: day})
}

// AttributeSwing diffs the provider's domain sets between sw.Prev and
// sw.Day in the store and summarises the changed domains' NS SLDs; the
// returned Swing carries the delta found there. It works on dictionary
// IDs throughout and needs no aggregated state, only the two days' rows.
func (a *Aggregator) AttributeSwing(sources []string, sw Swing) Attribution {
	att := Attribution{Swing: sw}
	uses := func(day simtime.Day) []uint32 {
		var ids []uint32
		for _, src := range sources {
			core.DetectDay(a.Store, src, day, a.Refs).EachUse(sw.Provider, func(id uint32, _ core.Method) { ids = append(ids, id) })
		}
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	prev, cur := uses(sw.Prev), uses(sw.Day)
	// pending marks the changed domains whose NS SLD is still to be
	// counted: both lists ascend, so one merge finds who joined and left.
	dict := a.Store.Dict()
	pending := make([]uint64, (dict.Len()+63)/64)
	for i, j := 0, 0; i < len(prev) || j < len(cur); {
		switch {
		case j == len(cur) || i < len(prev) && prev[i] < cur[j]:
			att.Left++
			pending[prev[i]>>6] |= 1 << (prev[i] & 63)
			i++
		case i == len(prev) || cur[j] < prev[i]:
			att.Joined++
			pending[cur[j]>>6] |= 1 << (cur[j] & 63)
			j++
		default:
			i, j = i+1, j+1
		}
	}
	att.Swing.Delta = att.Joined - att.Left
	changed := att.Joined + att.Left
	if changed == 0 {
		return att
	}

	// Fingerprint the changed set by NS SLD, one per domain. A domain that
	// vanished has its NS rows on the previous day.
	sldCount := make(map[string]int)
	for _, d := range []simtime.Day{sw.Day, sw.Prev} {
		for _, src := range sources {
			b, _ := a.Store.RowBatch(src, d)
			for i, dom := range b.Domains {
				if bit := uint64(1) << (dom & 63); b.Kinds[i] == store.KindNS && pending[dom>>6]&bit != 0 {
					pending[dom>>6] &^= bit
					sldCount[core.SLD(dict.Str(b.Strs[i]))]++
				}
			}
		}
	}
	for sld, n := range sldCount {
		att.Shared = append(att.Shared, SLDShare{
			SLD:      sld,
			Domains:  n,
			Fraction: float64(n) / float64(changed),
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
