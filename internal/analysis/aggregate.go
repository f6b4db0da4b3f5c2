// Package analysis computes the paper's results (§4) from stored
// measurements: daily use counts and method breakdowns per provider and
// TLD (Figs 2–4), anomaly-cleaned growth trends (Figs 5–6), per-provider
// first-seen/last-seen flux (Fig 7), and on-demand peak-duration
// distributions (Fig 8, §3.4).
package analysis

import (
	"context"
	"fmt"
	"sort"

	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// DayCounts are the per-(source, day) aggregates every figure consumes.
type DayCounts struct {
	// Measured is the number of domains with any stored data point.
	Measured int
	// Any is the number of domains using at least one provider.
	Any int
	// PerProvider[p] counts domains with any reference to provider p.
	PerProvider []int
	// PerMethod[p] counts domains per reference kind toward provider p,
	// indexed AS, CNAME, NS.
	PerMethod [][3]int
}

// presence tracks one domain's detection intervals for one provider.
type presence struct {
	intervals []simtime.Range
}

func (p *presence) add(day simtime.Day) {
	n := len(p.intervals)
	if n > 0 && p.intervals[n-1].End == day {
		p.intervals[n-1].End = day + 1
		return
	}
	p.intervals = append(p.intervals, simtime.Range{Start: day, End: day + 1})
}

// Aggregator folds per-day detections into the aggregates. Feed days in
// ascending order per source via AddDetections (or use Run).
type Aggregator struct {
	Refs  *core.References
	Store *store.Store
	// Workers bounds the detection fan-out of Run (0 = GOMAXPROCS).
	Workers int

	counts map[string]map[simtime.Day]*DayCounts
	// trackers[p] maps domain → presence, across the tracked sources
	// (the gTLDs by default; each domain lives in exactly one TLD).
	trackers []map[string]*presence
	// trackSources marks sources that feed interval tracking.
	trackSources map[string]bool
	lastDay      map[string]simtime.Day
	detectStats  core.RangeStats
	// degraded marks days committed with excess measurement failures;
	// the growth pipeline interpolates across them (see degraded.go).
	degraded map[simtime.Day]bool
}

// NewAggregator creates an aggregator; trackSources name the partitions
// whose detections feed the flux and peak analyses (pass the gTLDs).
func NewAggregator(refs *core.References, s *store.Store, trackSources []string) *Aggregator {
	a := &Aggregator{
		Refs:         refs,
		Store:        s,
		counts:       make(map[string]map[simtime.Day]*DayCounts),
		trackers:     make([]map[string]*presence, refs.NumProviders()),
		trackSources: make(map[string]bool),
		lastDay:      make(map[string]simtime.Day),
	}
	for i := range a.trackers {
		a.trackers[i] = make(map[string]*presence)
	}
	for _, s := range trackSources {
		a.trackSources[s] = true
	}
	return a
}

// AddDetections folds one partition's precomputed detections — the hook
// DetectRange callers use to fan detection out across partitions and
// fold the results back in day order. Folding itself is not safe for
// concurrent use; call it from one goroutine.
func (a *Aggregator) AddDetections(det *core.DayDetections) error {
	source, day := det.Source, det.Day
	if last, ok := a.lastDay[source]; ok && day <= last {
		return fmt.Errorf("analysis: %s day %s added out of order (last %s)", source, day, last)
	}
	a.lastDay[source] = day
	dc := &DayCounts{
		Measured:    det.DomainsMeasured,
		Any:         det.CountAny(),
		PerProvider: make([]int, a.Refs.NumProviders()),
		PerMethod:   make([][3]int, a.Refs.NumProviders()),
	}
	track := a.trackSources[source]
	for p := range dc.PerProvider {
		dc.PerProvider[p] = det.Count(p)
		det.EachUse(p, func(id uint32, m core.Method) {
			if m.Has(core.RefAS) {
				dc.PerMethod[p][0]++
			}
			if m.Has(core.RefCNAME) {
				dc.PerMethod[p][1]++
			}
			if m.Has(core.RefNS) {
				dc.PerMethod[p][2]++
			}
			if track {
				dom := det.DomainName(id)
				pr := a.trackers[p][dom]
				if pr == nil {
					pr = &presence{}
					a.trackers[p][dom] = pr
				}
				pr.add(day)
			}
		})
	}
	days := a.counts[source]
	if days == nil {
		days = make(map[simtime.Day]*DayCounts)
		a.counts[source] = days
	}
	days[day] = dc
	return nil
}

// Run folds every stored day of the given sources, detecting all
// partitions in parallel (bounded by Workers) and folding the results in
// day order.
func (a *Aggregator) Run(sources []string) error {
	var parts []core.Partition
	for _, src := range sources {
		for _, day := range a.Store.Days(src) {
			parts = append(parts, core.Partition{Source: src, Day: day})
		}
	}
	dets, rst := core.DetectRangeStats(context.Background(), a.Store, parts, a.Refs, a.Workers)
	a.detectStats.Add(rst)
	for _, det := range dets {
		if err := a.AddDetections(det); err != nil {
			return err
		}
	}
	return nil
}

// DetectStats returns the stage-timing summary accumulated over Run
// calls (zero if detection was fed through AddDetections).
func (a *Aggregator) DetectStats() core.RangeStats { return a.detectStats }

// Days returns the aggregated days for a source, sorted.
func (a *Aggregator) Days(source string) []simtime.Day {
	days := a.counts[source]
	out := make([]simtime.Day, 0, len(days))
	for d := range days {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SumAny returns the total DPS-using domains across sources on a day
// (sources must partition domains, as the TLDs do).
func (a *Aggregator) SumAny(sources []string, day simtime.Day) int {
	n := 0
	for _, src := range sources {
		if dc := a.counts[src][day]; dc != nil {
			n += dc.Any
		}
	}
	return n
}

// SumProvider is SumAny for one provider.
func (a *Aggregator) SumProvider(sources []string, p int, day simtime.Day) int {
	n := 0
	for _, src := range sources {
		if dc := a.counts[src][day]; dc != nil {
			n += dc.PerProvider[p]
		}
	}
	return n
}

// SumMethod sums one provider's method counter (0=AS, 1=CNAME, 2=NS).
func (a *Aggregator) SumMethod(sources []string, p, method int, day simtime.Day) int {
	n := 0
	for _, src := range sources {
		if dc := a.counts[src][day]; dc != nil {
			n += dc.PerMethod[p][method]
		}
	}
	return n
}

// SumMeasured sums the measured-domain denominators.
func (a *Aggregator) SumMeasured(sources []string, day simtime.Day) int {
	n := 0
	for _, src := range sources {
		if dc := a.counts[src][day]; dc != nil {
			n += dc.Measured
		}
	}
	return n
}

// Distribution computes Fig 4: the average share of each source in the
// measured namespace and in the DPS-using population.
func (a *Aggregator) Distribution(sources []string) (namespace, dpsUse map[string]float64) {
	namespace = make(map[string]float64)
	dpsUse = make(map[string]float64)
	var nsTotal, dpsTotal float64
	for _, src := range sources {
		for _, dc := range a.counts[src] {
			namespace[src] += float64(dc.Measured)
			dpsUse[src] += float64(dc.Any)
			nsTotal += float64(dc.Measured)
			dpsTotal += float64(dc.Any)
		}
	}
	for _, src := range sources {
		if nsTotal > 0 {
			namespace[src] /= nsTotal
		}
		if dpsTotal > 0 {
			dpsUse[src] /= dpsTotal
		}
	}
	return namespace, dpsUse
}

// UseClass is the §3.4 classification of how a domain uses a provider.
type UseClass int

// Use classes.
const (
	// ClassNotSeen: never detected.
	ClassNotSeen UseClass = iota
	// ClassAlwaysOn: one gap-free detection interval.
	ClassAlwaysOn
	// ClassSingle: one bounded interval — indistinguishable between a
	// short-lived always-on customer and a single on-demand episode
	// (§4.4.3).
	ClassSingle
	// ClassOnDemand: at least three detection peaks.
	ClassOnDemand
	// ClassIntermittent: two peaks.
	ClassIntermittent
)

var classNames = [...]string{"not-seen", "always-on", "single", "on-demand", "intermittent"}

// Classify labels domain's use of provider p, given the measurement
// window (to distinguish always-on from a bounded single interval).
func (a *Aggregator) Classify(p int, domain string, window simtime.Range) UseClass {
	pr := a.trackers[p][domain]
	if pr == nil || len(pr.intervals) == 0 {
		return ClassNotSeen
	}
	switch n := len(pr.intervals); {
	case n >= 3:
		return ClassOnDemand
	case n == 2:
		return ClassIntermittent
	default:
		iv := pr.intervals[0]
		if iv.Start <= window.Start && iv.End >= window.End {
			return ClassAlwaysOn
		}
		return ClassSingle
	}
}

// FluxBin is one Fig 7 window: domains first seen and last seen in it.
type FluxBin struct {
	Start simtime.Day
	In    int
	Out   int
}

// Delta is In - Out.
func (b FluxBin) Delta() int { return b.In - b.Out }

// Flux computes Fig 7 for one provider: first-seen/last-seen deltas in
// binDays-wide windows. Domains already present on the first measured day
// do not count as influx, and domains still present on the last day do
// not count as outflux — first/last sightings at the window boundaries
// are artifacts of the finite measurement, not adoption events.
func (a *Aggregator) Flux(p int, window simtime.Range, binDays int) []FluxBin {
	if binDays <= 0 {
		binDays = 14
	}
	nBins := (window.Len() + binDays - 1) / binDays
	bins := make([]FluxBin, nBins)
	for i := range bins {
		bins[i].Start = window.Start + simtime.Day(i*binDays)
	}
	for _, pr := range a.trackers[p] {
		first := pr.intervals[0].Start
		last := pr.intervals[len(pr.intervals)-1].End - 1
		if first > window.Start {
			if i := int(first-window.Start) / binDays; i >= 0 && i < nBins {
				bins[i].In++
			}
		}
		if last < window.End-1 {
			if i := int(last-window.Start) / binDays; i >= 0 && i < nBins {
				bins[i].Out++
			}
		}
	}
	return bins
}

// PeakStats is the Fig 8 material for one provider.
type PeakStats struct {
	// Domains is the size of the estimated on-demand set (≥ minPeaks
	// detection peaks).
	Domains int
	// Durations holds every peak length in days, sorted ascending.
	Durations []int
}

// P returns the q-quantile (0..1) of the peak durations, in days.
func (s PeakStats) P(q float64) int {
	if len(s.Durations) == 0 {
		return 0
	}
	i := int(q * float64(len(s.Durations)))
	if i >= len(s.Durations) {
		i = len(s.Durations) - 1
	}
	return s.Durations[i]
}

// CDF returns (duration, cumulative fraction) pairs for plotting.
func (s PeakStats) CDF() (days []int, frac []float64) {
	n := len(s.Durations)
	for i := 0; i < n; {
		j := i
		for j < n && s.Durations[j] == s.Durations[i] {
			j++
		}
		days = append(days, s.Durations[i])
		frac = append(frac, float64(j)/float64(n))
		i = j
	}
	return days, frac
}

// OnDemandPeaks estimates the on-demand set of provider p (domains with
// at least minPeaks peaks, §4.4.3 uses 3) and collects peak durations.
func (a *Aggregator) OnDemandPeaks(p, minPeaks int) PeakStats {
	var st PeakStats
	for _, pr := range a.trackers[p] {
		if len(pr.intervals) < minPeaks {
			continue
		}
		st.Domains++
		for _, iv := range pr.intervals {
			st.Durations = append(st.Durations, iv.Len())
		}
	}
	sort.Ints(st.Durations)
	return st
}

// Detected returns every domain ever detected using provider p across the
// tracked sources.
func (a *Aggregator) Detected(p int) []string {
	out := make([]string, 0, len(a.trackers[p]))
	for dom := range a.trackers[p] {
		out = append(out, dom)
	}
	sort.Strings(out)
	return out
}
