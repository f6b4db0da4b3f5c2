package api

// Incremental index maintenance. A running dpsapi must fold a freshly
// committed (source, day) partition into its serving state without
// rebuilding the whole index: Apply takes the partition's already-run
// detections and produces a NEW Index sharing everything the delta does
// not touch (copy-on-write), memoized answers included, plus a Delta
// describing which days and domains changed. The old index stays fully
// readable throughout — in-flight requests finish against it — and the
// swap is a single pointer store.
//
// Three shapes of update exist, in decreasing frequency:
//
//   - pure append: the new day is after every indexed day (the daily
//     crawl case). Columns grow by one slot; only detected domains are
//     repacked.
//   - same-day merge: another source commits an already-indexed day.
//     Day counts grow by the genuinely new (domain, provider) pairs —
//     membership is checked against the old interval lists, mirroring
//     the "count once per day across sources" rule of the full build.
//   - backfill: a day lands between already-indexed days. Besides the
//     detected domains, every domain whose packed interval spans the
//     inserted day must be repacked (its run is no longer a run of
//     consecutive measured days), so this shape pays one scan over the
//     domain map.

import (
	"fmt"
	"sort"
	"time"

	"dpsadopt/internal/analysis"
	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
)

// PartitionUpdate is one committed (source, day) partition's detection
// result, ready to fold into an index. Det must have been built with
// the same *core.References the index was, but may come from any store
// dictionary (the spool's own): Apply consumes it at the string edge.
type PartitionUpdate struct {
	Source string
	Day    simtime.Day
	Det    *core.DayDetections
}

// Delta reports what an Apply changed.
type Delta struct {
	Epoch   uint64          // the new index's epoch
	Applied int             // partitions folded in
	Days    []simtime.Day   // days whose aggregates changed, sorted
	NewDays []simtime.Day   // subset of Days not previously indexed
	Domains map[string]bool // domains whose histories changed (incl. repacked spanners)
}

// Apply folds a batch of partition updates into a new index, leaving
// the receiver untouched. The same (source, day) must not be applied
// twice — callers (the follower) dedupe against the journal. An empty
// batch returns the receiver unchanged with a nil delta.
func (x *Index) Apply(batch []PartitionUpdate) (*Index, *Delta) {
	if len(batch) == 0 {
		return x, nil
	}
	start := time.Now()
	np := x.refs.NumProviders()

	// Merge updates day by day at the string edge: each Det resolves
	// its own dictionary, exactly as the full build merges sources.
	byDay := make(map[simtime.Day][]map[string]core.Method)
	measuredAdd := make(map[simtime.Day]int64)
	srcSet := make(map[string]bool, len(x.sources))
	for _, s := range x.sources {
		srcSet[s] = true
	}
	for _, u := range batch {
		if u.Det.NumProviders() != np {
			panic(fmt.Sprintf("api: Apply update %s/%s built with %d providers, index has %d",
				u.Source, u.Day, u.Det.NumProviders(), np))
		}
		merged := byDay[u.Day]
		if merged == nil {
			merged = make([]map[string]core.Method, np)
			for p := range merged {
				merged[p] = make(map[string]core.Method)
			}
			byDay[u.Day] = merged
		}
		for p := 0; p < np; p++ {
			u.Det.MergeAny(p, merged[p])
		}
		measuredAdd[u.Day] += int64(u.Det.DomainsMeasured)
		srcSet[u.Source] = true
	}

	delta := &Delta{
		Epoch:   x.epoch + 1,
		Applied: len(batch),
		Domains: make(map[string]bool),
	}
	for d := range byDay {
		delta.Days = append(delta.Days, d)
		if _, ok := x.dayPos[d]; !ok {
			delta.NewDays = append(delta.NewDays, d)
		}
	}
	sort.Slice(delta.Days, func(i, j int) bool { return delta.Days[i] < delta.Days[j] })
	sort.Slice(delta.NewDays, func(i, j int) bool { return delta.NewDays[i] < delta.NewDays[j] })

	nd := &Index{
		refs:        x.refs,
		partitions:  x.partitions + len(batch),
		epoch:       x.epoch + 1,
		detectStats: x.detectStats,
	}
	nd.sources = make([]string, 0, len(srcSet))
	for s := range srcSet {
		nd.sources = append(nd.sources, s)
	}
	sort.Strings(nd.sources)

	// Day axis: splice new days in, remembering each new position's old
	// counterpart (-1 for inserted days) for the column copy below.
	if len(delta.NewDays) == 0 {
		nd.days, nd.dayPos = x.days, x.dayPos
	} else {
		nd.days = make([]simtime.Day, 0, len(x.days)+len(delta.NewDays))
		nd.days = append(nd.days, x.days...)
		nd.days = append(nd.days, delta.NewDays...)
		sort.Slice(nd.days, func(i, j int) bool { return nd.days[i] < nd.days[j] })
		nd.dayPos = make(map[simtime.Day]int, len(nd.days))
		for i, d := range nd.days {
			nd.dayPos[d] = i
		}
	}
	oldPosOf := make([]int, len(nd.days))
	for i, d := range nd.days {
		if op, ok := x.dayPos[d]; ok {
			oldPosOf[i] = op
		} else {
			oldPosOf[i] = -1
		}
	}
	copyCol := func(old []int64) []int64 {
		out := make([]int64, len(nd.days))
		for i, op := range oldPosOf {
			if op >= 0 {
				out[i] = old[op]
			}
		}
		return out
	}
	nd.measured = copyCol(x.measured)
	nd.anyUse = copyCol(x.anyUse)
	nd.series = make([][]int64, np)
	for p := 0; p < np; p++ {
		nd.series[p] = copyCol(x.series[p])
	}

	// Fold the day aggregates and collect per-domain new detections.
	// For an already-indexed day only genuinely new (domain, provider)
	// pairs bump the counts: the old interval list is the membership
	// oracle (every measured day inside a packed run is a detection).
	perDomain := make(map[string]map[simtime.Day][]core.Method)
	for day, merged := range byDay {
		di := nd.dayPos[day]
		dayIsNew := oldPosOf[di] < 0
		anyDom := make(map[string]bool)
		for p := 0; p < np; p++ {
			added := int64(0)
			for dom, m := range merged[p] {
				delta.Domains[dom] = true
				anyDom[dom] = true
				pd := perDomain[dom]
				if pd == nil {
					pd = make(map[simtime.Day][]core.Method)
					perDomain[dom] = pd
				}
				pm := pd[day]
				if pm == nil {
					pm = make([]core.Method, np)
					pd[day] = pm
				}
				pm[p] |= m
				if dayIsNew || !x.detectedOn(dom, p, day) {
					added++
				}
			}
			nd.series[p][di] += added
		}
		for dom := range anyDom {
			if dayIsNew || !x.detectedAnyOn(dom, day) {
				nd.anyUse[di]++
			}
		}
		nd.measured[di] += measuredAdd[day]
	}

	// A backfilled day severs the measured-day adjacency of every packed
	// run that spans it: those domains must repack even without new
	// detections (their histories now show a gap on the inserted day).
	var mid []int32
	if len(x.days) > 0 {
		for _, d := range delta.NewDays {
			if d > x.days[0] && d < x.days[len(x.days)-1] {
				mid = append(mid, int32(d))
			}
		}
	}
	if len(mid) > 0 {
		for dom, e := range x.domains {
			if delta.Domains[dom] {
				continue
			}
		scan:
			for _, iv := range e.ivs {
				for _, d := range mid {
					if iv.first < d && d < iv.last {
						delta.Domains[dom] = true
						break scan
					}
				}
			}
		}
	}

	// Copy-on-write domain map: untouched domains share their entries
	// (intervals and memoized answer) with the old index; touched ones
	// get a fresh entry, their intervals exploded against the OLD day
	// axis, overlaid with the new detections, and repacked against the
	// NEW one. The daily-crawl case — every touched day new and after the
	// whole old axis — skips the O(history) explode: no existing day's
	// detections changed, so the old packing stays valid and the new
	// days extend a copy of it in O(intervals + new days). Domains are
	// never removed, so the least name is the old one or a touched one.
	appendOnly := len(delta.Days) == len(delta.NewDays) &&
		(len(x.days) == 0 || delta.NewDays[0] > x.days[len(x.days)-1])
	nd.domains = make(map[string]*domainEntry, len(x.domains)+len(delta.Domains))
	for dom, e := range x.domains {
		nd.domains[dom] = e
	}
	nd.exampleDomain = x.exampleDomain
	for dom := range delta.Domains {
		e := &domainEntry{}
		if appendOnly {
			e.ivs = x.appendDomain(dom, perDomain[dom], delta.NewDays)
		} else {
			e.ivs = x.repackDomain(nd, dom, perDomain[dom])
		}
		nd.domains[dom] = e
		if nd.exampleDomain == "" || dom < nd.exampleDomain {
			nd.exampleDomain = dom
		}
	}

	// Answer slots: a day the delta left alone answers as before, so its
	// slot (rendered or not) carries over; a touched or new day starts
	// unrendered, and so does every series.
	nd.dayBody = make([]*memo, len(nd.days))
	for i, op := range oldPosOf {
		if op >= 0 && byDay[nd.days[i]] == nil {
			nd.dayBody[i] = x.dayBody[op]
		} else {
			nd.dayBody[i] = new(memo)
		}
	}
	nd.seriesBody = make([]memo, np)

	// Smoothing is global over each provider's series, so it recomputes
	// wholesale — O(providers × days), trivial next to detection.
	nd.smoothed = make([][]float64, np)
	for p := 0; p < np; p++ {
		raw := make([]float64, len(nd.series[p]))
		for i, v := range nd.series[p] {
			raw[i] = float64(v)
		}
		nd.smoothed[p] = analysis.Smooth(raw)
	}

	nd.buildTime = time.Since(start)
	return nd, delta
}

// detectedOn reports whether the old index already counts (dom, p) as
// detected on day d. Valid only for indexed days: interval packing
// guarantees every measured day inside [first, last] is a detection.
func (x *Index) detectedOn(dom string, p int, d simtime.Day) bool {
	for _, iv := range x.intervals(dom) {
		if int(iv.provider) == p && iv.first <= int32(d) && int32(d) <= iv.last {
			return true
		}
	}
	return false
}

// detectedAnyOn is detectedOn for "any provider".
func (x *Index) detectedAnyOn(dom string, d simtime.Day) bool {
	for _, iv := range x.intervals(dom) {
		if iv.first <= int32(d) && int32(d) <= iv.last {
			return true
		}
	}
	return false
}

// appendDomain is repackDomain's append-only fast path: every touched
// day is new and after the old day axis, so the old packing is reused
// verbatim (copied — appendDetection may extend the last interval in
// place, and the old index must stay readable) and only the new tail is
// packed. prev threads through ALL new days, detections or not, so a
// skipped day severs runs exactly as the full build would.
func (x *Index) appendDomain(dom string, add map[simtime.Day][]core.Method, newDays []simtime.Day) []interval {
	old := x.intervals(dom)
	ivs := make([]interval, len(old), len(old)+len(newDays))
	copy(ivs, old)
	prev := simtime.Day(-1 << 30)
	if len(x.days) > 0 {
		prev = x.days[len(x.days)-1]
	}
	np := x.refs.NumProviders()
	for _, day := range newDays {
		if pm := add[day]; pm != nil {
			for p := 0; p < np; p++ {
				if pm[p] != 0 {
					ivs = appendDetection(ivs, p, pm[p], day, prev)
				}
			}
		}
		prev = day
	}
	return ivs
}

// repackDomain rebuilds one domain's interval list: the old intervals
// are exploded into per-day detections against the old day axis, the
// new detections (nil for pure spanners) are OR-ed in, and the result
// is packed against the new day axis — byte-identical to what a full
// build over the union data would produce.
func (x *Index) repackDomain(nd *Index, dom string, add map[simtime.Day][]core.Method) []interval {
	np := x.refs.NumProviders()
	det := make(map[simtime.Day][]core.Method)
	for _, iv := range x.intervals(dom) {
		for d := iv.first; d <= iv.last; d++ {
			day := simtime.Day(d)
			if _, ok := x.dayPos[day]; !ok {
				continue
			}
			pm := det[day]
			if pm == nil {
				pm = make([]core.Method, np)
				det[day] = pm
			}
			pm[iv.provider] |= iv.methods
		}
	}
	for day, apm := range add {
		pm := det[day]
		if pm == nil {
			pm = make([]core.Method, np)
			det[day] = pm
		}
		for p, m := range apm {
			pm[p] |= m
		}
	}

	var ivs []interval
	prev := simtime.Day(-1 << 30)
	for _, day := range nd.days {
		if pm := det[day]; pm != nil {
			for p := 0; p < np; p++ {
				if pm[p] != 0 {
					ivs = appendDetection(ivs, p, pm[p], day, prev)
				}
			}
		}
		prev = day
	}
	return ivs
}
