// Package measure reimplements the paper's active DNS measurement system
// (§3.1, Fig 1) against the simulated Internet: Stage I acquires the day's
// domain lists from the TLD namespace models (the "zone file download"),
// Stage II fans the lists over a worker cloud that queries A, AAAA, NS and
// CNAME for the apex and www labels of every domain, and Stage III stores
// all answer-section fields, supplemented with origin-AS numbers from the
// day's pfx2as snapshot (§3.2).
//
// Two fidelity modes share the same storage schema. ModeWire drives real
// DNS messages through resolvers against authoritative servers built by
// worldsim.BuildWire — byte-level fidelity, used by tests and -mode wire.
// ModeDirect derives the identical records from the world model in
// process, which makes 550-day full-namespace runs tractable; the
// equivalence of both modes is asserted by TestModesEquivalent.
package measure

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"dpsadopt/internal/dnsclient"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/pfx2as"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/trace"
	"dpsadopt/internal/transport"
	"dpsadopt/internal/worldsim"
)

// Mode selects the measurement fidelity.
type Mode int

// Measurement modes.
const (
	// ModeDirect derives records from the world model in process.
	ModeDirect Mode = iota
	// ModeWire resolves every query over the transport network.
	ModeWire
)

// SourceAlexa is the store source name for the popularity-list
// measurements; TLD sources use their labels ("com", "net", ...).
const SourceAlexa = "alexa"

// Config tunes the pipeline.
type Config struct {
	Mode    Mode
	Workers int
	// Timeout/Retries/RetryBudget apply to wire-mode resolvers
	// (0 = dnsclient default).
	Timeout     int // milliseconds
	Retries     int
	RetryBudget int
	// WireNetwork, when set, supplies the transport for each wire-mode
	// day (e.g. transport.NewMappedUDP to measure over kernel sockets,
	// or a chaos.Wrap for fault injection); by default each day gets
	// MemNetwork's fresh in-memory one.
	WireNetwork func(day simtime.Day) transport.Network
	// OnWire, when set, is invoked after a wire-mode day's authoritative
	// world is built and before resolution starts — the hook point for
	// installing server-side fault injectors or protecting root addresses
	// on a chaos transport.
	OnWire func(day simtime.Day, wire *worldsim.Wire, network transport.Network)
	// OnDay, when set, receives per-day progress.
	OnDay func(day simtime.Day, rows int)
}

// NetStats is the per-day network-health accounting of a wire-mode day:
// how hard the resolvers had to work and how often they failed. The
// experiment layer compares FailureRate against its degraded-day
// threshold when committing the day.
type NetStats struct {
	// Queries counts query datagrams sent (UDP and TCP).
	Queries int64
	// Lost counts attempts that expired without a response.
	Lost int64
	// Resolutions counts Resolve calls.
	Resolutions int64
	// GaveUp counts resolutions that returned an error — lost data points.
	GaveUp int64
}

// FailureRate is the fraction of resolutions that gave up entirely.
func (s NetStats) FailureRate() float64 {
	if s.Resolutions == 0 {
		return 0
	}
	return float64(s.GaveUp) / float64(s.Resolutions)
}

// LossRate is the fraction of query attempts that went unanswered.
func (s NetStats) LossRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Queries)
}

// add folds one worker resolver's counters in.
func (s *NetStats) add(r *dnsclient.Resolver) {
	s.Queries += r.QueriesSent()
	s.Lost += r.TimeoutsSeen()
	s.Resolutions += r.Resolutions()
	s.GaveUp += r.GiveUps()
}

// Pipeline measures a world into a store.
type Pipeline struct {
	World *worldsim.World
	Store *store.Store
	Cfg   Config

	queriesSent int64
	dayNet      NetStats
}

// New creates a pipeline.
func New(w *worldsim.World, s *store.Store, cfg Config) *Pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.WireNetwork == nil {
		cfg.WireNetwork = MemNetwork
	}
	return &Pipeline{World: w, Store: s, Cfg: cfg}
}

// MemNetwork is a wire-mode day's default network: a fresh in-memory one
// seeded by the day.
func MemNetwork(day simtime.Day) transport.Network { return transport.NewMem(int64(day) ^ 0x3f3f) }

// QueriesSent reports wire-mode query datagrams sent so far.
func (p *Pipeline) QueriesSent() int64 { return p.queriesSent }

// LastNetStats reports the network accounting of the most recently
// completed wire-mode day (zero for direct mode).
func (p *Pipeline) LastNetStats() NetStats { return p.dayNet }

// task is one domain to measure into one source partition.
type task struct {
	dom *worldsim.Domain
}

// stageOneLists assembles the day's measurement lists per source — the
// zone-file acquisition step.
func (p *Pipeline) stageOneLists(day simtime.Day) map[string][]task {
	lists := make(map[string][]task)
	w := p.World
	// The world's flat domain table is TLD-ordered and carries
	// lifetimes; one scan assembles every TLD's list.
	for _, d := range w.Domains {
		var window simtime.Range
		if d.TLD == "nl" {
			window = w.Cfg.NLWindow
		} else {
			window = w.Cfg.Window
		}
		if !window.Contains(day) || !d.Life.Contains(day) {
			continue
		}
		lists[d.TLD] = append(lists[d.TLD], task{dom: d})
	}
	if w.Cfg.NLWindow.Contains(day) {
		for _, idx := range w.AlexaList(day) {
			d := w.Domains[idx]
			if d.Life.Contains(day) {
				lists[SourceAlexa] = append(lists[SourceAlexa], task{dom: d})
			}
		}
	}
	return lists
}

// RunDay measures one day into the store. The context carries
// cancellation (a cancelled day stops between domains and returns the
// context's error; committed partitions are kept) and the active trace
// span: stage spans (`measure.stage1/2/3`) nest under whatever day-level
// span the caller opened.
func (p *Pipeline) RunDay(ctx context.Context, day simtime.Day) error {
	return p.run(ctx, day, "")
}

// DaySources lists the sources that have a non-empty measurement list
// on the given day, sorted — the partition axis the coordination plane
// leases over.
func (p *Pipeline) DaySources(day simtime.Day) []string {
	lists := p.stageOneLists(day)
	out := make([]string, 0, len(lists))
	for source, tasks := range lists {
		if len(tasks) > 0 {
			out = append(out, source)
		}
	}
	sort.Strings(out)
	return out
}

// RunPartition measures exactly one (source, day) partition into the
// store — the unit of work leased by the coordination plane. It is
// RunDay's one-source case, so measuring a day partition by partition
// yields the same rows as RunDay (asserted by TestRunPartitionEquivalent).
// A source with nothing to measure that day is an error.
func (p *Pipeline) RunPartition(ctx context.Context, source string, day simtime.Day) error {
	if source == "" {
		return fmt.Errorf("measure: no partition %s/%s", source, day)
	}
	return p.run(ctx, day, source)
}

// run is the one day body: Stage I lists, the day's pfx2as table and, in
// wire mode, the day's servers, then every source — or only the named
// one — through Stages II and III.
func (p *Pipeline) run(ctx context.Context, day simtime.Day, only string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dayStart := time.Now()
	_, sp1 := trace.StartSpan(ctx, "measure.stage1", trace.Str("day", day.String()))
	lists := p.stageOneLists(day)
	sp1.SetAttr(trace.Int("sources", int64(len(lists))))
	sp1.End()
	mStageSeconds.With(stageZoneAcquisition).Observe(time.Since(dayStart).Seconds())
	// Sources run in sorted order: map order would make wire-mode flow
	// identities (ephemeral ports) differ between runs, breaking the
	// reproducibility of fault accounting.
	sources := make([]string, 0, len(lists))
	for source := range lists {
		sources = append(sources, source)
	}
	sort.Strings(sources)
	if only != "" {
		if len(lists[only]) == 0 {
			return fmt.Errorf("measure: no partition %s/%s", only, day)
		}
		sources = []string{only}
	}
	if len(sources) == 0 {
		return nil
	}
	// The day's pfx2as snapshot, via the textual Routeviews format, as
	// the paper's Stage III does.
	table, err := pfx2as.FromSnapshot(p.World.RIBForDay(day).Snapshot())
	if err != nil {
		return fmt.Errorf("measure: pfx2as snapshot: %w", err)
	}

	var wire *worldsim.Wire
	var network transport.Network
	p.dayNet = NetStats{}
	if p.Cfg.Mode == ModeWire {
		network = p.Cfg.WireNetwork(day)
		_, spw := trace.StartSpan(ctx, "measure.wirebuild")
		wire, err = p.World.BuildWire(day, network)
		spw.End()
		if err != nil {
			return fmt.Errorf("measure: wire build: %w", err)
		}
		defer wire.Close()
		if p.Cfg.OnWire != nil {
			p.Cfg.OnWire(day, wire, network)
		}
	}

	resStart := time.Now()
	rows := 0
	domains := 0
	for _, source := range sources {
		tasks := lists[source]
		sctx, sp2 := trace.StartSpan(ctx, "measure.stage2",
			trace.Str("source", source), trace.Int("domains", int64(len(tasks))))
		n, err := p.runSource(sctx, day, source, tasks, table, wire, network)
		sp2.SetAttr(trace.Int("rows", int64(n)))
		sp2.End()
		if err != nil {
			return err
		}
		rows += n
		domains += len(tasks)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	mStageSeconds.With(stageResolution).Observe(time.Since(resStart).Seconds())
	mDomains.Add(int64(domains))
	if only != "" {
		return nil // one partition is not a day: the day counters and OnDay are the day's
	}
	mDays.Inc()
	if p.Cfg.OnDay != nil {
		p.Cfg.OnDay(day, rows)
	}
	return nil
}

// runSource measures one source's task list with the worker cloud.
func (p *Pipeline) runSource(ctx context.Context, day simtime.Day, source string, tasks []task, table pfx2as.Table, wire *worldsim.Wire, network transport.Network) (int, error) {
	workers := p.Cfg.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers == 0 {
		return 0, nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	chunk := (len(tasks) + workers - 1) / workers
	// Wire-mode resolvers are created sequentially before the workers
	// start: concurrent dials would race for ephemeral ports and give
	// flows run-dependent identities, breaking reproducible fault
	// accounting.
	resolvers := make([]*dnsclient.Resolver, workers)
	if p.Cfg.Mode == ModeWire {
		for wi := 0; wi < workers; wi++ {
			local := netip.AddrFrom4([4]byte{10, 200, byte(wi >> 8), byte(wi)})
			r, err := dnsclient.NewResolver(network, local, wire.Roots, int64(day)*1000+int64(wi))
			if err != nil {
				for _, prev := range resolvers[:wi] {
					prev.Close()
				}
				return 0, err
			}
			if p.Cfg.Timeout > 0 {
				r.Timeout = time.Duration(p.Cfg.Timeout) * time.Millisecond
			}
			if p.Cfg.Retries > 0 {
				r.Retries = p.Cfg.Retries
			}
			if p.Cfg.RetryBudget > 0 {
				r.RetryBudget = p.Cfg.RetryBudget
			}
			resolvers[wi] = r
		}
	}
	// Workers fill their own writers; one commit after the barrier takes
	// them in worker order, so a partition's row order and dictionary IDs
	// are the task order's whatever the worker count or scheduling.
	writers := make([]*store.Writer, workers)
	for wi := 0; wi < workers; wi++ {
		lo := wi * chunk
		hi := lo + chunk
		if hi > len(tasks) {
			hi = len(tasks)
		}
		writers[wi] = p.Store.NewWriter(source, day)
		if lo >= hi {
			if resolvers[wi] != nil {
				resolvers[wi].Close()
			}
			continue
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			writer := writers[wi]
			resolver := resolvers[wi]
			if resolver != nil {
				defer resolver.Close()
			}
			for _, t := range tasks[lo:hi] {
				if ctx.Err() != nil {
					break // cancelled: what this worker has is still committed
				}
				if p.Cfg.Mode == ModeDirect {
					p.measureDirect(writer, t.dom, day, table)
					continue
				}
				// Per-domain sampling: only sampled domains carry
				// the active span into the resolver.
				p.measureWire(trace.ForDomain(ctx, t.dom.Name), writer, resolver, t.dom, table)
			}
			if resolver != nil {
				mu.Lock()
				p.queriesSent += resolver.QueriesSent()
				p.dayNet.add(resolver)
				mu.Unlock()
			}
		}(wi, lo, hi)
	}
	wg.Wait()
	for _, writer := range writers {
		total += writer.Rows()
	}
	commitStart := time.Now()
	_, sp3 := trace.StartSpan(ctx, "measure.stage3",
		trace.Str("source", source), trace.Int("rows", int64(total)))
	store.Commit(writers...)
	sp3.End()
	mStageSeconds.With(stageStorage).Observe(time.Since(commitStart).Seconds())
	return total, ctx.Err()
}

// measureDirect emits the rows for one domain from the world model.
func (p *Pipeline) measureDirect(w *store.Writer, d *worldsim.Domain, day simtime.Day, table pfx2as.Table) {
	st := p.World.StateFor(d, day)
	if !st.Exists || st.Unmeasurable {
		return
	}
	for _, a := range st.ApexA {
		w.AddAddr(d.Name, store.KindApexA, a, lookupASNs(table, a))
	}
	for _, a := range st.ApexAAAA {
		w.AddAddr(d.Name, store.KindApexAAAA, a, lookupASNs(table, a))
	}
	if st.WWWCNAME != "" {
		w.AddStr(d.Name, store.KindWWWCNAME, st.WWWCNAME)
	}
	for _, a := range st.WWWA {
		w.AddAddr(d.Name, store.KindWWWA, a, lookupASNs(table, a))
	}
	for _, a := range st.WWWAAAA {
		w.AddAddr(d.Name, store.KindWWWAAAA, a, lookupASNs(table, a))
	}
	for _, ns := range st.NSHosts {
		w.AddStr(d.Name, store.KindNS, ns)
	}
}

// measureWire resolves the domain's records over the network and emits
// the same row shapes as measureDirect.
func (p *Pipeline) measureWire(ctx context.Context, w *store.Writer, r *dnsclient.Resolver, d *worldsim.Domain, table pfx2as.Table) {
	name := d.Name
	if res, err := r.Resolve(ctx, name, dnswire.TypeA); err == nil {
		for _, rr := range res.Records {
			if a, ok := rr.Data.(dnswire.A); ok {
				w.AddAddr(name, store.KindApexA, a.Addr, lookupASNs(table, a.Addr))
			}
		}
	}
	if res, err := r.Resolve(ctx, name, dnswire.TypeAAAA); err == nil {
		for _, rr := range res.Records {
			if a, ok := rr.Data.(dnswire.AAAA); ok {
				w.AddAddr(name, store.KindApexAAAA, a.Addr, lookupASNs(table, a.Addr))
			}
		}
	}
	if res, err := r.Resolve(ctx, name, dnswire.TypeNS); err == nil {
		for _, rr := range res.Records {
			if ns, ok := rr.Data.(dnswire.NS); ok {
				w.AddStr(name, store.KindNS, ns.Host)
			}
		}
	}
	if res, err := r.Resolve(ctx, "www."+name, dnswire.TypeA); err == nil {
		for _, rr := range res.Records {
			switch data := rr.Data.(type) {
			case dnswire.CNAME:
				w.AddStr(name, store.KindWWWCNAME, data.Target)
			case dnswire.A:
				w.AddAddr(name, store.KindWWWA, data.Addr, lookupASNs(table, data.Addr))
			}
		}
	}
	if res, err := r.Resolve(ctx, "www."+name, dnswire.TypeAAAA); err == nil {
		for _, rr := range res.Records {
			if a, ok := rr.Data.(dnswire.AAAA); ok {
				w.AddAddr(name, store.KindWWWAAAA, a.Addr, lookupASNs(table, a.Addr))
			}
		}
	}
}

func lookupASNs(table pfx2as.Table, a netip.Addr) []uint32 {
	origins, ok := table.Lookup(a)
	if !ok {
		return nil
	}
	return origins
}
