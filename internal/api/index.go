package api

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dpsadopt/internal/analysis"
	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// interval is one packed detection interval: a maximal run of
// consecutive measured days on which a domain exhibited the same
// reference methods toward one provider. 12 bytes per interval keeps a
// multi-million-domain index compact; a gap in detection (or a change
// in the method set) starts a new interval.
type interval struct {
	provider uint8
	methods  core.Method
	days     uint16 // measured days covered (== last-first+1 on contiguous data)
	first    int32  // simtime.Day
	last     int32  // simtime.Day, inclusive
}

// memo is one rendered answer of an index generation: nil until the
// first request renders it. Every render of one slot produces the same
// bytes, so two racing first renders may both store.
type memo = atomic.Pointer[[]byte]

// domainEntry is one detected domain of an index generation: its packed
// intervals in day order and its memoized /v1/domain answer. Apply gives
// every domain it touches a fresh entry, so a body stored in an entry
// always describes the generations that share that entry.
type domainEntry struct {
	ivs  []interval
	body memo
}

// Index is the read-optimized view of a loaded dataset: the detection
// pass (core.DetectDay) runs once per partition at build time, and every
// request is then answered from inverted structures — domain → packed
// interval list, provider → daily series — without touching the columnar
// store again. The index is immutable after Build, so readers need no
// locks; the only thing a reader writes is an answer's memo slot, which
// holds at most one body per detected domain, indexed day and provider.
type Index struct {
	refs    *core.References
	sources []string
	days    []simtime.Day // sorted union over sources
	dayPos  map[simtime.Day]int

	domains       map[string]*domainEntry
	exampleDomain string // the least detected domain name ("" when none)

	// The memoized /v1/day and /v1/provider/{p}/series answers. Apply
	// shares a day's slot with the previous generation unless the delta
	// touched the day, and gives every series a fresh slot: the §4.2
	// smoothing is global over each provider's series.
	dayBody    []*memo // [dayIdx]
	seriesBody []memo  // [provider]

	series   [][]int64   // [provider][dayIdx] distinct domains using p
	smoothed [][]float64 // §4.2-smoothed counterpart of series
	measured []int64     // [dayIdx] domains with any stored row (summed over sources)
	anyUse   []int64     // [dayIdx] distinct domains using at least one provider

	partitions  int
	epoch       uint64 // bumped by every Apply; 0 for a fresh build
	buildTime   time.Duration
	detectStats core.RangeStats
}

// NewIndex builds the index from a store by running detection over every
// (source, day) partition and merging sources per day (a domain counted
// once per day regardless of how many lists contain it, as §4.1 counts).
// Detection fans out across partitions via core.DetectRangeSource — the build
// folds one shared parallel pass instead of walking partitions
// sequentially.
func NewIndex(s *store.Store, refs *core.References) *Index {
	x, _ := buildIndex(s, core.Partitions(s), refs)
	return x
}

// IndexBuildError reports a streaming index build that skipped
// unreadable partitions. The Index is still valid and serves everything
// that did decode — degraded, not dead — so callers get both.
type IndexBuildError struct {
	Failed []core.PartitionFailure
}

func (e *IndexBuildError) Error() string {
	return fmt.Sprintf("api: index build skipped %d unreadable partition(s), first: %v",
		len(e.Failed), e.Failed[0].Err)
}

// NewIndexReader builds the index out-of-core from a streaming
// *store.Reader: detection workers acquire → detect → release each
// partition, so peak memory is O(workers × largest partition), not the
// dataset. Unreadable partitions degrade the index (their days are
// simply missing data) and come back in an *IndexBuildError alongside
// the still-usable Index.
func NewIndexReader(r *store.Reader, refs *core.References) (*Index, error) {
	x, failed := buildIndex(r, core.ReaderPartitions(r), refs)
	if len(failed) > 0 {
		return x, &IndexBuildError{Failed: failed}
	}
	return x, nil
}

// buildIndex is the shared build: the partition list (sorted
// (source, day), from Partitions or the Reader's directory) defines the
// universe; sources and the day axis derive from it, detection runs via
// core.DetectRangeSource, and the fold consumes results day-major.
func buildIndex(src core.BatchSource, universe []core.Partition, refs *core.References) (*Index, []core.PartitionFailure) {
	start := time.Now()
	np := refs.NumProviders()
	x := &Index{
		refs:    refs,
		dayPos:  make(map[simtime.Day]int),
		domains: make(map[string]*domainEntry),
	}
	srcSet := make(map[string]bool)
	daySet := make(map[simtime.Day]bool)
	for _, pt := range universe {
		if !srcSet[pt.Source] {
			srcSet[pt.Source] = true
			x.sources = append(x.sources, pt.Source)
		}
		daySet[pt.Day] = true
	}
	sort.Strings(x.sources)
	x.days = make([]simtime.Day, 0, len(daySet))
	for d := range daySet {
		x.days = append(x.days, d)
	}
	sort.Slice(x.days, func(i, j int) bool { return x.days[i] < x.days[j] })
	for i, d := range x.days {
		x.dayPos[d] = i
	}
	x.dayBody = make([]*memo, len(x.days))
	for i := range x.dayBody {
		x.dayBody[i] = new(memo)
	}
	x.seriesBody = make([]memo, np)

	x.series = make([][]int64, np)
	for p := range x.series {
		x.series[p] = make([]int64, len(x.days))
	}
	x.measured = make([]int64, len(x.days))
	x.anyUse = make([]int64, len(x.days))

	// Day-major partition order keeps each day's detections contiguous,
	// so the fold below consumes the parallel results with one cursor.
	bySrcDay := make(map[core.Partition]bool, len(universe))
	for _, pt := range universe {
		bySrcDay[pt] = true
	}
	var parts []core.Partition
	for _, day := range x.days {
		for _, src := range x.sources {
			if bySrcDay[core.Partition{Source: src, Day: day}] {
				parts = append(parts, core.Partition{Source: src, Day: day})
			}
		}
	}
	// Detection runs in day chunks: each chunk fans out across the worker
	// pool, folds, and lets its DayDetections go before the next chunk
	// decodes. Holding every partition's detections until one global
	// barrier would put an O(dataset) term back into the streaming
	// build's peak; chunks are sized so each still saturates the pool.
	workers := runtime.GOMAXPROCS(0)
	chunkDays := 2
	if len(x.sources) > 0 {
		if need := (2*workers + len(x.sources) - 1) / len(x.sources); need > chunkDays {
			chunkDays = need
		}
	}
	// A build has one source and so one dictionary: each day folds on
	// domain IDs, in maps that are cleared between days, and a name is
	// resolved once per fold entry at addDay.
	merged := make([]map[uint32]core.Method, np)
	for p := range merged {
		merged[p] = make(map[uint32]core.Method)
	}
	anySet := make(map[uint32]struct{})
	var failed []core.PartitionFailure
	pi := 0
	for ci := 0; ci < len(x.days); ci += chunkDays {
		cend := ci + chunkDays
		if cend > len(x.days) {
			cend = len(x.days)
		}
		pstart := pi
		for pi < len(parts) && x.dayPos[parts[pi].Day] < cend {
			pi++
		}
		chunk := parts[pstart:pi]
		dets, rst, cfailed := core.DetectRangeSource(context.Background(), src, chunk, refs, 0)
		x.detectStats.Add(rst)
		failed = append(failed, cfailed...)
		ck := 0 // cursor into chunk/dets
		for di := ci; di < cend; di++ {
			day := x.days[di]
			var names *core.DayDetections // any of the day's detections resolves its IDs
			for ; ck < len(chunk) && chunk[ck].Day == day; ck++ {
				det := dets[ck]
				if det == nil { // unreadable partition: its slot is missing data
					continue
				}
				x.measured[di] += int64(det.DomainsMeasured)
				for p := 0; p < np; p++ {
					det.MergeAnyID(p, merged[p])
				}
				names = det
				dets[ck] = nil // folded: the packed arrays are free to go
			}
			prev := simtime.Day(-1 << 30)
			if di > 0 {
				prev = x.days[di-1]
			}
			for p := 0; p < np; p++ {
				x.series[p][di] = int64(len(merged[p]))
				for id, m := range merged[p] {
					anySet[id] = struct{}{}
					x.addDay(names.DomainName(id), p, m, day, prev)
				}
				clear(merged[p])
			}
			x.anyUse[di] = int64(len(anySet))
			clear(anySet)
		}
	}
	x.partitions = len(parts) - len(failed)

	x.smoothed = make([][]float64, np)
	for p := 0; p < np; p++ {
		raw := make([]float64, len(x.series[p]))
		for i, v := range x.series[p] {
			raw[i] = float64(v)
		}
		x.smoothed[p] = analysis.Smooth(raw)
	}

	x.buildTime = time.Since(start)
	return x, failed
}

// addDay folds one (domain, provider, methods) detection on day into the
// domain's packed interval list. prev is the previous measured day: an
// interval extends only across consecutive measured days with an
// unchanged method set.
func (x *Index) addDay(dom string, p int, m core.Method, day, prev simtime.Day) {
	e := x.domains[dom]
	if e == nil {
		e = &domainEntry{}
		x.domains[dom] = e
		if x.exampleDomain == "" || dom < x.exampleDomain {
			x.exampleDomain = dom
		}
	}
	e.ivs = appendDetection(e.ivs, p, m, day, prev)
}

// intervals returns dom's packed intervals (nil when never detected).
func (x *Index) intervals(dom string) []interval {
	if e := x.domains[dom]; e != nil {
		return e.ivs
	}
	return nil
}

// appendDetection is the interval-packing step shared by the full build
// and the delta repack: extend the provider's last interval if day is
// the next consecutive measured day with the same methods, else start a
// new interval.
func appendDetection(ivs []interval, p int, m core.Method, day, prev simtime.Day) []interval {
	for i := len(ivs) - 1; i >= 0; i-- {
		if int(ivs[i].provider) != p {
			continue
		}
		if simtime.Day(ivs[i].last) == prev && ivs[i].methods == m {
			ivs[i].last = int32(day)
			ivs[i].days++
			return ivs
		}
		break
	}
	return append(ivs, interval{
		provider: uint8(p),
		methods:  m,
		days:     1,
		first:    int32(day),
		last:     int32(day),
	})
}

// IntervalInfo is one detection interval in presentation form.
type IntervalInfo struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Days    int    `json:"days"`
	Methods string `json:"methods"`
}

// ProviderUse summarises one domain's use of one provider.
type ProviderUse struct {
	Provider  string         `json:"provider"`
	Methods   string         `json:"methods"` // union over all intervals
	FirstSeen string         `json:"first_seen"`
	LastSeen  string         `json:"last_seen"`
	Days      int            `json:"days"`
	PeakRun   int            `json:"peak_run_days"` // longest uninterrupted interval
	Intervals []IntervalInfo `json:"intervals"`
}

// DomainHistory is the /v1/domain/{name} response body.
type DomainHistory struct {
	Domain    string        `json:"domain"`
	FirstSeen string        `json:"first_seen"`
	LastSeen  string        `json:"last_seen"`
	Days      int           `json:"days_detected"`
	Providers []ProviderUse `json:"providers"`
}

// Domain returns the full detection history of one domain, or false if
// the domain never exhibited a DPS reference in the dataset.
func (x *Index) Domain(name string) (DomainHistory, bool) {
	e, ok := x.domains[name]
	if !ok {
		return DomainHistory{}, false
	}
	h := DomainHistory{Domain: name}
	byProv := make(map[int]*ProviderUse)
	union := make(map[int]core.Method)
	var order []int
	first, last := int32(1<<31-1), int32(-1<<31)
	daySet := make(map[int32]bool)
	for _, iv := range e.ivs {
		if iv.first < first {
			first = iv.first
		}
		if iv.last > last {
			last = iv.last
		}
		for d := iv.first; d <= iv.last; d++ {
			if _, ok := x.dayPos[simtime.Day(d)]; ok {
				daySet[d] = true
			}
		}
		p := int(iv.provider)
		u := byProv[p]
		if u == nil {
			u = &ProviderUse{
				Provider:  x.refs.Providers[p].Name,
				FirstSeen: simtime.Day(iv.first).String(),
			}
			byProv[p] = u
			order = append(order, p)
		}
		union[p] |= iv.methods
		u.LastSeen = simtime.Day(iv.last).String()
		u.Days += int(iv.days)
		if int(iv.days) > u.PeakRun {
			u.PeakRun = int(iv.days)
		}
		u.Intervals = append(u.Intervals, IntervalInfo{
			From:    simtime.Day(iv.first).String(),
			To:      simtime.Day(iv.last).String(),
			Days:    int(iv.days),
			Methods: iv.methods.String(),
		})
	}
	sort.Ints(order)
	for _, p := range order {
		byProv[p].Methods = union[p].String()
		h.Providers = append(h.Providers, *byProv[p])
	}
	h.FirstSeen = simtime.Day(first).String()
	h.LastSeen = simtime.Day(last).String()
	h.Days = len(daySet)
	return h, true
}

// ProviderSeries is the /v1/provider/{name}/series response body.
type ProviderSeries struct {
	Provider string    `json:"provider"`
	FirstDay string    `json:"first_day"`
	Days     []string  `json:"days"`
	Raw      []int64   `json:"raw"`
	Smoothed []float64 `json:"smoothed"`
}

// Series returns one provider's daily use counts (raw and §4.2-smoothed).
// Provider names match case-insensitively.
func (x *Index) Series(name string) (ProviderSeries, bool) {
	p := x.provider(name)
	if p < 0 {
		return ProviderSeries{}, false
	}
	out := ProviderSeries{
		Provider: x.refs.Providers[p].Name,
		Days:     make([]string, len(x.days)),
		Raw:      append([]int64(nil), x.series[p]...),
		Smoothed: append([]float64(nil), x.smoothed[p]...),
	}
	for i, d := range x.days {
		out.Days[i] = d.String()
	}
	if len(x.days) > 0 {
		out.FirstDay = x.days[0].String()
	}
	return out, true
}

// provider resolves a provider name case-insensitively (-1 when unknown).
func (x *Index) provider(name string) int {
	for i := range x.refs.Providers {
		if strings.EqualFold(x.refs.Providers[i].Name, name) {
			return i
		}
	}
	return -1
}

// DayInfo is the /v1/day/{date} response body.
type DayInfo struct {
	Day       string           `json:"day"`
	Measured  int64            `json:"domains_measured"`
	AnyUse    int64            `json:"domains_using_any"`
	Providers map[string]int64 `json:"providers"`
}

// Day returns per-provider totals for one measured day.
func (x *Index) Day(d simtime.Day) (DayInfo, bool) {
	di, ok := x.dayPos[d]
	if !ok {
		return DayInfo{}, false
	}
	out := DayInfo{
		Day:       d.String(),
		Measured:  x.measured[di],
		AnyUse:    x.anyUse[di],
		Providers: make(map[string]int64, len(x.refs.Providers)),
	}
	for p := range x.refs.Providers {
		out.Providers[x.refs.Providers[p].Name] = x.series[p][di]
	}
	return out, true
}

// Stats is the /v1/stats response body. ExampleDomain gives smoke tests
// and quickstarts a known-good /v1/domain key.
type Stats struct {
	Sources           []string `json:"sources"`
	FirstDay          string   `json:"first_day"`
	LastDay           string   `json:"last_day"`
	DaysIndexed       int      `json:"days_indexed"`
	PartitionsIndexed int      `json:"partitions_indexed"`
	DomainsDetected   int      `json:"domains_detected"`
	ExampleDomain     string   `json:"example_domain,omitempty"`
	Providers         []string `json:"providers"`
	IndexBuildMS      float64  `json:"index_build_ms"`
	IndexEpoch        uint64   `json:"index_epoch"`
}

// Stats summarises the loaded dataset and index.
func (x *Index) Stats() Stats {
	st := Stats{
		Sources:           x.sources,
		DaysIndexed:       len(x.days),
		PartitionsIndexed: x.partitions,
		DomainsDetected:   len(x.domains),
		ExampleDomain:     x.exampleDomain,
		IndexBuildMS:      float64(x.buildTime.Microseconds()) / 1000,
		IndexEpoch:        x.epoch,
	}
	if len(x.days) > 0 {
		st.FirstDay = x.days[0].String()
		st.LastDay = x.days[len(x.days)-1].String()
	}
	for i := range x.refs.Providers {
		st.Providers = append(st.Providers, x.refs.Providers[i].Name)
	}
	return st
}

// Domains lists every detected domain, sorted (used by benchmarks and
// dpsdata; not exposed as a route).
func (x *Index) Domains() []string {
	out := make([]string, 0, len(x.domains))
	for dom := range x.domains {
		out = append(out, dom)
	}
	sort.Strings(out)
	return out
}

// Days lists the indexed days, sorted.
func (x *Index) Days() []simtime.Day { return append([]simtime.Day(nil), x.days...) }

// Epoch is the index's version: 0 for a fresh NewIndex build, bumped by
// one for every Apply. Readers use it to tell index generations apart.
func (x *Index) Epoch() uint64 { return x.epoch }

// BuildStats reports the detection fan-out the index build performed:
// the (source, day) partitions classified and the wall time spent.
func (x *Index) BuildStats() (partitions int, elapsed time.Duration) {
	return x.partitions, x.buildTime
}

// DetectStats returns the stage-timing summary of the build's
// DetectRange pass, for logging per-core efficiency at startup.
func (x *Index) DetectStats() core.RangeStats { return x.detectStats }
