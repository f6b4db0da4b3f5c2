// Package experiment orchestrates full paper reproductions: it streams
// the daily measurement of a generated world through detection and
// aggregation, accounting Table 1 statistics on the fly and dropping raw
// partitions so that a 550-day full-namespace run fits in memory. Each
// table and figure of the paper has a regeneration method here; the
// report package renders the returned structures.
package experiment

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"time"

	"dpsadopt/internal/analysis"
	"dpsadopt/internal/chaos"
	"dpsadopt/internal/core"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/pfx2as"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/trace"
	"dpsadopt/internal/transport"
	"dpsadopt/internal/worldsim"
)

// Config sizes a reproduction run.
type Config struct {
	// Scale is the world scale divisor (1000 = the paper at 1:1000).
	Scale int
	// Workers is the measurement worker count.
	Workers int
	// DetectWorkers bounds the per-day detection fan-out across source
	// partitions (0 = GOMAXPROCS). Detection of a day's sources is
	// independent, so the streaming runner classifies them in parallel
	// and folds the results in source order.
	DetectWorkers int
	// Days truncates the run to the first N days of the window (0 = the
	// full 550 days), for quick runs and benchmarks.
	Days int
	// KeepStore retains raw partitions instead of dropping them after
	// aggregation (needed when callers want to re-scan; costs memory).
	KeepStore bool
	// Wire measures over the transport network (measure.ModeWire) instead
	// of deriving records in process — required for fault injection, since
	// only wire days have datagrams to lose.
	Wire bool
	// WireTimeout is the wire-mode resolver timeout in milliseconds; zero
	// keeps the dnsclient default. Chaos runs lower it so injected losses
	// cost milliseconds, not seconds.
	WireTimeout int
	// FaultScenario names a chaos scenario (chaos.ScenarioNames) injected
	// into every wire day; empty runs fault-free. Requires Wire.
	FaultScenario string
	// FaultSeed fixes the fault pattern: the same scenario and seed inject
	// the same faults, making degraded-day accounting reproducible.
	FaultSeed int64
	// OnDayProgress, when set, receives the obs-aware per-day progress
	// event after each measured day.
	OnDayProgress func(DayProgress)
}

// DayProgress describes one completed measurement day of a run; the same
// numbers are exported as experiment_* gauges on the default obs
// registry.
type DayProgress struct {
	// Done/Total index the day within the run window.
	Done, Total int
	// Day is the simulated date just measured.
	Day simtime.Day
	// Rows is the number of rows the day contributed across sources.
	Rows int64
	// Detected is the number of gTLD domains using any DPS on this day.
	Detected int
	// Net is the wire-mode network accounting (zero for direct mode).
	Net measure.NetStats
	// Degraded reports whether the day was committed as degraded.
	Degraded bool
}

// DayAccounting is one row of the run's degraded-day ledger: the paper's
// pipeline had to commit partial measurement days and remember which ones
// they were (§4.2); this is that memory, per day.
type DayAccounting struct {
	Day simtime.Day
	// Queries/Lost/GaveUp/Resolutions mirror measure.NetStats.
	Queries     int64
	Lost        int64
	Resolutions int64
	GaveUp      int64
	// FailureRate is GaveUp/Resolutions.
	FailureRate float64
	// Degraded marks the day as committed above the failure threshold.
	Degraded bool
}

// SourceStats accumulates one Table 1 row.
type SourceStats struct {
	Source          string
	FirstDay        simtime.Day
	Days            int
	UniqueSLDs      int
	DataPoints      int64
	CompressedBytes int64

	unique map[uint32]bool
}

// Runner drives a reproduction.
type Runner struct {
	Cfg   Config
	World *worldsim.World
	Refs  *core.References
	Store *store.Store
	Agg   *analysis.Aggregator

	pipeline    *measure.Pipeline
	stats       map[string]*SourceStats
	window      simtime.Range
	ran         bool
	detectStats core.RangeStats
}

// New builds a runner over a freshly generated world.
func New(cfg Config) (*Runner, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.FaultScenario != "" && !cfg.Wire {
		return nil, fmt.Errorf("experiment: fault scenario %q requires Wire mode (direct days have no datagrams to lose)", cfg.FaultScenario)
	}
	w, err := worldsim.New(worldsim.DefaultConfig(cfg.Scale))
	if err != nil {
		return nil, err
	}
	refs, err := core.GroundTruth()
	if err != nil {
		return nil, err
	}
	s := store.New()
	r := &Runner{
		Cfg:   cfg,
		World: w,
		Refs:  refs,
		Store: s,
		Agg:   analysis.NewAggregator(refs, s, worldsim.GTLDs()),
		stats: make(map[string]*SourceStats),
	}
	mcfg := measure.Config{Mode: measure.ModeDirect, Workers: cfg.Workers}
	if cfg.Wire {
		mcfg.Mode = measure.ModeWire
		mcfg.Timeout = cfg.WireTimeout
	}
	if cfg.FaultScenario != "" {
		fc, err := chaos.Scenario(cfg.FaultScenario)
		if err != nil {
			return nil, err
		}
		armFaults(&mcfg, fc, DaySeeds(cfg.FaultSeed), nil)
	}
	r.pipeline = measure.New(w, s, mcfg)
	r.window = w.Cfg.Window
	if cfg.Days > 0 && cfg.Days < r.window.Len() {
		r.window.End = r.window.Start + simtime.Day(cfg.Days)
	}
	return r, nil
}

// DefaultFailureThreshold is the resolution failure rate above which a
// wire day is committed as degraded.
const DefaultFailureThreshold = 0.05

// AccountDay is a day's row of the degraded-day ledger: its network
// accounting, degraded when more than DefaultFailureThreshold of its
// resolutions gave up. A direct day resolves nothing, so its failure
// rate is 0 and it is never degraded.
func AccountDay(day simtime.Day, net measure.NetStats) DayAccounting {
	rate := net.FailureRate()
	return DayAccounting{
		Day: day, Queries: net.Queries, Lost: net.Lost,
		Resolutions: net.Resolutions, GaveUp: net.GaveUp,
		FailureRate: rate, Degraded: rate > DefaultFailureThreshold,
	}
}

// DaySeeds derives each day's fault seed from a run's seed, so days fault
// independently while the whole run stays a pure function of (scenario,
// seed).
func DaySeeds(seed int64) func(simtime.Day) int64 {
	return func(day simtime.Day) int64 { return seed + int64(day)*1_000_003 }
}

// armFaults arms scenario fc on mcfg's wire days: each day days accepts
// (nil: every day) gets ArmDay over measure.MemNetwork's network under
// seed(day).
func armFaults(mcfg *measure.Config, fc chaos.Config, seed func(simtime.Day) int64, days func(simtime.Day) bool) {
	on := func(day simtime.Day) bool { return days == nil || days(day) }
	mcfg.WireNetwork = func(day simtime.Day) transport.Network {
		if !on(day) {
			return measure.MemNetwork(day)
		}
		network, _ := ArmDay(measure.MemNetwork(day), fc, seed(day)) // OnWire arms the wire
		return network
	}
	mcfg.OnWire = func(day simtime.Day, wire *worldsim.Wire, network transport.Network) {
		if on(day) {
			armWire(wire, network, fc, seed(day))
		}
	}
}

// ArmDay arms scenario fc on one day's network under seed: the network
// comes back wrapped in the scenario's datagram faults, with the hook to
// call once the day's servers are built on it.
func ArmDay(network transport.Network, fc chaos.Config, seed int64) (transport.Network, func(*worldsim.Wire)) {
	if fc.Active() {
		network = chaos.Wrap(network, fc, seed)
	}
	return network, func(wire *worldsim.Wire) { armWire(wire, network, fc, seed) }
}

// armWire protects the day's roots on its fault network and gives every
// authoritative the scenario's server faults under seed. Roots are never
// blackholed: a dead root would sever the namespace at its first hop, and
// the scenarios model degraded days, not a dead Internet.
func armWire(wire *worldsim.Wire, network transport.Network, fc chaos.Config, seed int64) {
	if cn, ok := network.(*chaos.Network); ok {
		for _, root := range wire.Roots {
			cn.Protect(root.Addr())
		}
	}
	if fc.ServerActive() {
		wire.SetFaults(chaos.NewServerFaults(fc, seed))
	}
}

// Window returns the days actually run.
func (r *Runner) Window() simtime.Range { return r.window }

// Run executes the streaming measurement + analysis pass. The context
// cancels the run between (and, in wire mode, inside) days; each day is
// traced as an `experiment.day` root span on the process tracer when one
// is installed (trace.SetDefault).
func (r *Runner) Run(ctx context.Context) error {
	if r.ran {
		return fmt.Errorf("experiment: Run called twice")
	}
	r.ran = true
	total := r.window.Len()
	mDaysTotal.Set(float64(total))
	// Table 1 is sized one day behind: an accountant goroutine runs day d's
	// DayStats and drop while day d+1 is measured. A hand-over first waits
	// for the previous day (≤ 2 days resident); every return joins it.
	var accountant sync.WaitGroup
	defer accountant.Wait()
	for i := 0; i < total; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		day := r.window.Start + simtime.Day(i)
		dctx, sp := trace.Default().StartRoot(ctx, "experiment.day",
			trace.Str("day", day.String()),
			trace.Int("index", int64(i+1)), trace.Int("total", int64(total)))
		if err := r.pipeline.RunDay(dctx, day); err != nil {
			sp.SetAttr(trace.Str("error", err.Error()))
			sp.End()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// A cancelled day is incomplete: drop its partial
				// partitions so the surviving store and accounting hold
				// only fully committed days.
				for _, src := range r.Store.Sources() {
					r.Store.DropDay(src, day)
				}
			}
			return fmt.Errorf("experiment: day %s: %w", day, err)
		}
		var dayRows int64
		var parts []core.Partition
		for _, src := range r.Store.Sources() {
			if b, ok := r.Store.RowBatch(src, day); ok {
				dayRows += int64(b.Rows())
				parts = append(parts, core.Partition{Source: src, Day: day})
			}
		}
		// One parallel detection pass over the day's source partitions;
		// results fold in source order so aggregation stays deterministic.
		dets, rst := core.DetectRangeStats(dctx, r.Store, parts, r.Refs, r.Cfg.DetectWorkers)
		r.detectStats.Add(rst)
		for _, det := range dets {
			if det == nil {
				continue // cancelled mid-day; ctx.Err() surfaces next loop
			}
			if err := r.Agg.AddDetections(det); err != nil {
				return err
			}
		}
		accountant.Wait()
		accountant.Add(1)
		go r.account(parts, &accountant)
		detected := r.Agg.SumAny(worldsim.GTLDs(), day)
		net := r.pipeline.LastNetStats()
		acct := AccountDay(day, net)
		if acct.Degraded {
			// The day is kept — partial data still feeds the aggregates,
			// as the paper's pipeline kept partial days — but committed as
			// degraded so the growth analysis interpolates across it.
			r.Agg.MarkDegraded(day)
			sp.SetAttr(trace.Str("degraded", "true"))
		}
		sp.SetAttr(trace.Int("rows", dayRows), trace.Int("detected", int64(detected)))
		sp.End()
		mDaysCompleted.Set(float64(i + 1))
		mRowsSeen.Add(dayRows)
		mDetected.Set(float64(detected))
		if r.Cfg.OnDayProgress != nil {
			r.Cfg.OnDayProgress(DayProgress{
				Done: i + 1, Total: total, Day: day,
				Rows: dayRows, Detected: detected,
				Net: net, Degraded: acct.Degraded,
			})
		}
	}
	if ds := r.detectStats; ds.Partitions > 0 {
		obs.Logger().Info("detection fan-out",
			"partitions", ds.Partitions, "rows", ds.Rows, "workers", ds.Workers,
			"partitions_per_sec", fmt.Sprintf("%.0f", ds.PartitionsPerSec()),
			"utilization", fmt.Sprintf("%.2f", ds.Utilization()),
			"scan", ds.Scan.Round(time.Millisecond).String(),
			"merge", ds.Merge.Round(time.Millisecond).String(),
			"barrier", ds.Barrier.Round(time.Millisecond).String())
	}
	return nil
}

// account adds one day's partitions to Table 1, then drops them unless kept.
func (r *Runner) account(parts []core.Partition, wg *sync.WaitGroup) {
	defer wg.Done()
	for _, p := range parts {
		rows, bytes, ids := r.Store.DayStats(p.Source, p.Day)
		st := r.stats[p.Source]
		if st == nil {
			st = &SourceStats{Source: p.Source, FirstDay: p.Day, unique: make(map[uint32]bool)}
			r.stats[p.Source] = st
		}
		st.Days++
		st.DataPoints += int64(rows)
		st.CompressedBytes += bytes
		for _, id := range ids {
			st.unique[id] = true
		}
		st.UniqueSLDs = len(st.unique)
		if !r.Cfg.KeepStore {
			r.Store.DropDay(p.Source, p.Day)
		}
	}
}

// DetectStats returns the run's accumulated DetectRange stage timing —
// the per-core efficiency ledger of the streaming detection passes.
func (r *Runner) DetectStats() core.RangeStats { return r.detectStats }

// MaterializeDay re-measures one day into a fresh store (the world is
// deterministic, so any day can be reproduced after the streaming pass).
func (r *Runner) MaterializeDay(day simtime.Day) (*store.Store, error) {
	s := r.newDayScratch()
	if err := s.pipe.RunDay(context.Background(), day); err != nil {
		return nil, err
	}
	return s.store, nil
}

// ---- Table 1 ----

// Table1 returns the accumulated data-set statistics, in the paper's
// source order.
func (r *Runner) Table1() []SourceStats {
	order := []string{"com", "net", "org", "nl", measure.SourceAlexa}
	var out []SourceStats
	for _, src := range order {
		if st := r.stats[src]; st != nil {
			out = append(out, *st)
		}
	}
	return out
}

// ---- Table 2 ----

// Table2Result pairs the discovered reference rows with ground truth.
type Table2Result struct {
	Discovered []core.ProviderRefs
	Truth      []core.ProviderRefs
	// Exact reports per provider whether discovery matched ground truth
	// exactly.
	Exact []bool
}

// Table2 runs the §3.3 discovery procedure on a materialized quiet day.
func (r *Runner) Table2(day simtime.Day) (*Table2Result, error) {
	tmp, err := r.MaterializeDay(day)
	if err != nil {
		return nil, err
	}
	return r.table2From(tmp, day)
}

// table2From discovers all nine rows from one aggregation of the day in
// src.
func (r *Runner) table2From(src core.BatchSource, day simtime.Day) (*Table2Result, error) {
	table, err := pfx2as.FromSnapshot(r.World.RIBForDay(day).Snapshot())
	if err != nil {
		return nil, err
	}
	probe := func(sld string) (netip.Addr, bool) { return r.World.ProbeApex(sld, day) }
	res := &Table2Result{Truth: slices.Clone(r.Refs.Providers)}
	names := make([]string, len(res.Truth))
	for i := range res.Truth {
		names[i] = res.Truth[i].Name
	}
	// MinSupport 1 compensates the scale divisor: Incapsula's NS
	// delegation is used by only ~0.02% of its customers (tens of
	// domains at paper scale), which a 1:1000 world shrinks to a
	// single domain. The probe filter keeps single-bearer SLDs from
	// qualifying unless their own apex is hosted by the provider.
	res.Discovered, err = core.DiscoverAll(src, worldsim.GTLDs(), day, r.World.Registry, names, table, probe,
		core.DiscoveryConfig{MinSupport: 1, MinASSupport: 2})
	if err != nil {
		return nil, err
	}
	for i, got := range res.Discovered {
		res.Exact = append(res.Exact, refEqual(got, res.Truth[i]))
	}
	return res, nil
}

func refEqual(a, b core.ProviderRefs) bool {
	if len(a.ASNs) != len(b.ASNs) || len(a.CNAMESLDs) != len(b.CNAMESLDs) || len(a.NSSLDs) != len(b.NSSLDs) {
		return false
	}
	for i := range a.ASNs {
		if a.ASNs[i] != b.ASNs[i] {
			return false
		}
	}
	for i := range a.CNAMESLDs {
		if a.CNAMESLDs[i] != b.CNAMESLDs[i] {
			return false
		}
	}
	for i := range a.NSSLDs {
		if a.NSSLDs[i] != b.NSSLDs[i] {
			return false
		}
	}
	return true
}

// ---- Figures ----

// Series is a generic named day series.
type Series struct {
	Name string
	Days []simtime.Day
	Vals []float64
}

// Figure2 returns the daily DPS-use counts per gTLD plus the combined
// series.
func (r *Runner) Figure2() []Series {
	days := r.Agg.Days("com")
	var out []Series
	for _, tld := range worldsim.GTLDs() {
		s := Series{Name: tld, Days: days}
		for _, d := range days {
			s.Vals = append(s.Vals, float64(r.Agg.SumAny([]string{tld}, d)))
		}
		out = append(out, s)
	}
	comb := Series{Name: "combined", Days: days}
	for _, d := range days {
		comb.Vals = append(comb.Vals, float64(r.Agg.SumAny(worldsim.GTLDs(), d)))
	}
	out = append(out, comb)
	return out
}

// Figure3Panel is one provider's panel: total use plus the per-method
// breakdown.
type Figure3Panel struct {
	Provider string
	Days     []simtime.Day
	Total    []float64
	AS       []float64
	CNAME    []float64
	NS       []float64
}

// Figure3 returns the nine per-provider panels.
func (r *Runner) Figure3() []Figure3Panel {
	days := r.Agg.Days("com")
	g := worldsim.GTLDs()
	var out []Figure3Panel
	for p := range r.Refs.Providers {
		panel := Figure3Panel{Provider: r.Refs.Providers[p].Name, Days: days}
		for _, d := range days {
			panel.Total = append(panel.Total, float64(r.Agg.SumProvider(g, p, d)))
			panel.AS = append(panel.AS, float64(r.Agg.SumMethod(g, p, 0, d)))
			panel.CNAME = append(panel.CNAME, float64(r.Agg.SumMethod(g, p, 1, d)))
			panel.NS = append(panel.NS, float64(r.Agg.SumMethod(g, p, 2, d)))
		}
		out = append(out, panel)
	}
	return out
}

// Figure4Result holds the two Fig 4 distributions.
type Figure4Result struct {
	Namespace map[string]float64
	DPSUse    map[string]float64
}

// Figure4 returns the namespace and DPS-use shares per gTLD.
func (r *Runner) Figure4() Figure4Result {
	ns, dps := r.Agg.Distribution(worldsim.GTLDs())
	return Figure4Result{Namespace: ns, DPSUse: dps}
}

// Figure5 returns the combined gTLD growth trend.
func (r *Runner) Figure5() analysis.GrowthResult {
	return r.Agg.Growth(worldsim.GTLDs())
}

// Figure6Result holds the .nl and Alexa trends.
type Figure6Result struct {
	NL    analysis.GrowthResult
	Alexa analysis.GrowthResult
}

// Figure6 returns the .nl and Alexa growth trends (their windows start
// later; series are relative to their own first day).
func (r *Runner) Figure6() Figure6Result {
	var out Figure6Result
	if len(r.Agg.Days("nl")) > 0 {
		out.NL = r.Agg.Growth([]string{"nl"})
	}
	if len(r.Agg.Days(measure.SourceAlexa)) > 0 {
		out.Alexa = r.Agg.Growth([]string{measure.SourceAlexa})
	}
	return out
}

// Figure7Panel is one provider's flux plot.
type Figure7Panel struct {
	Provider string
	Bins     []analysis.FluxBin
}

// Figure7 returns the per-provider two-week flux panels.
func (r *Runner) Figure7() []Figure7Panel {
	var out []Figure7Panel
	for p := range r.Refs.Providers {
		out = append(out, Figure7Panel{
			Provider: r.Refs.Providers[p].Name,
			Bins:     r.Agg.Flux(p, r.window, 14),
		})
	}
	return out
}

// Figure8Panel is one provider's peak-duration CDF.
type Figure8Panel struct {
	Provider string
	Stats    analysis.PeakStats
	P80      int
}

// Figure8 returns the per-provider on-demand peak-duration panels
// (domains with ≥3 peaks, as in §4.4.3).
func (r *Runner) Figure8() []Figure8Panel {
	var out []Figure8Panel
	for p := range r.Refs.Providers {
		st := r.Agg.OnDemandPeaks(p, 3)
		out = append(out, Figure8Panel{
			Provider: r.Refs.Providers[p].Name,
			Stats:    st,
			P80:      st.P(0.8),
		})
	}
	return out
}

// AnomalyReport is one attributed swing (§4.4.1).
type AnomalyReport struct {
	Provider    string
	Attribution analysis.Attribution
}

// Anomalies finds each provider's largest day-over-day swings and
// attributes each to the third party whose NS SLD the changed domains
// share. Attribution needs the two days' rows, which the streaming pass
// dropped: they are re-measured into one scratch store, walking the
// swings in ascending day order so that a day several providers swing on
// is measured once and dropped once no later swing starts from it — two
// days resident at most.
func (r *Runner) Anomalies(perProvider int) ([]AnomalyReport, error) {
	var out []AnomalyReport
	g := worldsim.GTLDs()
	for p := range r.Refs.Providers {
		for _, sw := range r.Agg.LargestSwings(g, p, perProvider) {
			out = append(out, AnomalyReport{Provider: r.Refs.Providers[p].Name, Attribution: analysis.Attribution{Swing: sw}})
		}
	}
	byDay := make([]*AnomalyReport, len(out))
	for i := range out {
		byDay[i] = &out[i]
	}
	slices.SortFunc(byDay, func(a, b *AnomalyReport) int {
		return cmp.Compare(a.Attribution.Swing.Day, b.Attribution.Swing.Day)
	})
	scratch := r.newDayScratch()
	defer r.Refs.Forget(scratch.store.Dict())
	agg := analysis.NewAggregator(r.Refs, scratch.store, nil)
	for _, rep := range byDay {
		sw := rep.Attribution.Swing
		if err := scratch.advance(sw.Prev, sw.Day); err != nil {
			return nil, err
		}
		rep.Attribution = agg.AttributeSwing(g, sw)
	}
	return out, nil
}

// dayScratch holds re-measured days for a walk that only moves forward.
type dayScratch struct {
	store *store.Store
	pipe  *measure.Pipeline
	days  []simtime.Day // resident, ascending
}

func (r *Runner) newDayScratch() *dayScratch {
	tmp := store.New()
	return &dayScratch{store: tmp, pipe: measure.New(r.World, tmp, measure.Config{Mode: measure.ModeDirect, Workers: r.Cfg.Workers})}
}

// advance makes prev and day resident, first dropping every day before
// prev: the walk ascends, so nothing later can need those.
func (s *dayScratch) advance(prev, day simtime.Day) error {
	for len(s.days) > 0 && s.days[0] < prev {
		for _, src := range s.store.Sources() {
			s.store.DropDay(src, s.days[0])
		}
		s.days = s.days[1:]
	}
	for _, d := range []simtime.Day{prev, day} {
		if slices.Contains(s.days, d) {
			continue
		}
		if err := s.pipe.RunDay(context.Background(), d); err != nil {
			return err
		}
		s.days = append(s.days, d)
	}
	return nil
}

// ClassificationRow summarises §3.4 for one provider: how its detected
// domains split across use classes over the run window.
type ClassificationRow struct {
	Provider string
	AlwaysOn int
	OnDemand int
	Single   int
	Other    int
}

// Classification tabulates the always-on/on-demand split per provider.
func (r *Runner) Classification() []ClassificationRow {
	var out []ClassificationRow
	for p := range r.Refs.Providers {
		row := ClassificationRow{Provider: r.Refs.Providers[p].Name}
		for _, dom := range r.Agg.Detected(p) {
			switch r.Agg.Classify(p, dom, r.window) {
			case analysis.ClassAlwaysOn:
				row.AlwaysOn++
			case analysis.ClassOnDemand:
				row.OnDemand++
			case analysis.ClassSingle:
				row.Single++
			default:
				row.Other++
			}
		}
		out = append(out, row)
	}
	return out
}
