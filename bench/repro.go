package main

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"dpsadopt/internal/analysis"
	"dpsadopt/internal/core"
	"dpsadopt/internal/experiment"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/pfx2as"
	"dpsadopt/internal/report"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// reproSize sizes one paper reproduction (what cmd/dpsreport runs).
type reproSize struct {
	Scale, Days int
	Wire        bool
	// WarmScale/WarmDays size the warm-up reproduction that direct mode
	// runs as set-up; wire mode's set-up is the direct reference run.
	WarmScale, WarmDays int
}

// worldSeed is fixed by experiment.New (worldsim.DefaultConfig); the
// golden digests are keyed by it so the limit is visible in the key.
const worldSeed = 2016

func (s reproSize) goldenKey() string {
	mode := "direct"
	if s.Wire {
		mode = "wire"
	}
	return fmt.Sprintf("world_seed=%d,scale=%d,days=%d,mode=%s", worldSeed, s.Scale, s.Days, mode)
}

const (
	measureWorkers = 2
	detectWorkers  = 2
	reportSamples  = 24
)

// reproPass is what one reproduction pass measured.
type reproPass struct {
	newS, runS, renderS float64
	allocMB             float64
	digest              reportDigest
	bytesPerRow         float64
	partitions          int
	net                 measure.NetStats
	detect              core.RangeStats
	residentRowsMax     float64
	runCPU              time.Duration // CPU spent inside RunDay calls (staged only)
}

func (p reproPass) wall() float64 { return p.newS + p.runS + p.renderS }

// addNet folds one day's network accounting into a pass total.
func addNet(dst *measure.NetStats, day measure.NetStats) {
	dst.Queries += day.Queries
	dst.Lost += day.Lost
	dst.Resolutions += day.Resolutions
	dst.GaveUp += day.GaveUp
}

// reproFns are the three artifacts whose computation the staged driver
// replaces with span-wrapped replays of Runner's own method bodies.
type reproFns struct {
	table1    func() []experiment.SourceStats
	table2    func(parent *ref, day simtime.Day) (*experiment.Table2Result, error)
	anomalies func(parent *ref) ([]experiment.AnomalyReport, error)
}

// runRepro is one pass: build the world, measure and analyse every day,
// render every table and figure as text, CSV and SVG into dir. With a
// nil recorder it calls the program's entry points whole
// (experiment.New, Runner.Run, Runner.TableN/FigureN, report.*); with a
// recorder it replays Runner.Run's loop stage by stage.
func runRepro(size reproSize, dir string, rec *Recorder, root *ref) (reproPass, error) {
	var p reproPass
	ctx := context.Background()
	c0 := readClock()
	cfg := experiment.Config{
		Scale: size.Scale, Days: size.Days, Wire: size.Wire,
		Workers: measureWorkers, DetectWorkers: detectWorkers,
		OnDayProgress: func(dp experiment.DayProgress) { addNet(&p.net, dp.Net) },
	}
	var r *experiment.Runner
	var err error
	rec.do(root, "worldsim.new", func() { r, err = experiment.New(cfg) })
	if err != nil {
		return p, err
	}
	c1 := readClock()

	fns := reproFns{
		table1: r.Table1,
		table2: func(_ *ref, day simtime.Day) (*experiment.Table2Result, error) { return r.Table2(day) },
		anomalies: func(*ref) ([]experiment.AnomalyReport, error) {
			return r.Anomalies(1)
		},
	}
	if rec == nil {
		if err := r.Run(ctx); err != nil {
			return p, err
		}
		p.detect = r.DetectStats()
	} else {
		st := &staged{r: r, rec: rec, wire: size.Wire}
		if err := st.run(ctx, root, &p); err != nil {
			return p, err
		}
		fns = reproFns{table1: st.table1, table2: st.table2, anomalies: st.anomalies}
	}
	c2 := readClock()

	sp := rec.start(root, "experiment.render")
	digest, err := renderAll(r, dir, rec, sp, fns)
	sp.end()
	if err != nil {
		return p, err
	}
	c3 := readClock()

	p.newS = c1.t.Sub(c0.t).Seconds()
	p.runS = c2.t.Sub(c1.t).Seconds()
	p.renderS = c3.t.Sub(c2.t).Seconds()
	p.allocMB = c3.allocMBSince(c0)
	p.digest = digest
	var rows, bytes int64
	for _, st := range fns.table1() {
		rows += st.DataPoints
		bytes += st.CompressedBytes
		p.partitions += st.Days
	}
	p.bytesPerRow = ratio(float64(bytes), float64(rows))
	return p, nil
}

// staged replays Runner.Run's loop and the bodies of Runner.Table2 and
// Runner.Anomalies with a span around every call into a layer. It uses
// only exported state of the Runner, so it cannot drift silently: the
// report digest of a staged pass must equal that of Runner.Run.
type staged struct {
	r     *experiment.Runner
	rec   *Recorder
	wire  bool
	stats map[string]*sourceAcc
}

type sourceAcc struct {
	st     experiment.SourceStats
	unique map[uint32]bool
}

func (s *staged) run(ctx context.Context, root *ref, p *reproPass) error {
	r, rec := s.r, s.rec
	mcfg := measure.Config{Mode: measure.ModeDirect, Workers: r.Cfg.Workers}
	if s.wire {
		mcfg.Mode = measure.ModeWire
	}
	pipe := measure.New(r.World, r.Store, mcfg)
	s.stats = make(map[string]*sourceAcc)
	// The gauge is process-wide and earlier passes' stores never drop
	// their rows, so read it relative to where this loop started.
	resident := func() float64 {
		g, _ := obs.Default().Lookup("store_resident_rows")
		if g, ok := g.(*obs.Gauge); ok {
			return g.Value()
		}
		return 0
	}
	residentBase := resident()
	sp := rec.start(root, "experiment.run")
	defer sp.end()
	win := r.Window()
	for day := win.Start; day < win.End; day++ {
		var err error
		cpu0 := cpuTime()
		rec.do(sp, "measure.runday", func() { err = pipe.RunDay(ctx, day) })
		p.runCPU += cpuTime() - cpu0
		if err != nil {
			return fmt.Errorf("staged day %s: %w", day, err)
		}
		p.residentRowsMax = max(p.residentRowsMax, resident()-residentBase)
		var parts []core.Partition
		rec.do(sp, "store.daystats", func() {
			for _, src := range r.Store.Sources() {
				rows, bytes, ids := r.Store.DayStats(src, day)
				if rows == 0 {
					continue
				}
				acc := s.stats[src]
				if acc == nil {
					acc = &sourceAcc{st: experiment.SourceStats{Source: src, FirstDay: day}, unique: make(map[uint32]bool)}
					s.stats[src] = acc
				}
				acc.st.Days++
				acc.st.DataPoints += int64(rows)
				acc.st.CompressedBytes += bytes
				for _, id := range ids {
					acc.unique[id] = true
				}
				parts = append(parts, core.Partition{Source: src, Day: day})
			}
		})
		var dets []*core.DayDetections
		var rst core.RangeStats
		rec.do(sp, "core.detectrange", func() {
			dets, rst = core.DetectRangeStats(ctx, r.Store, parts, r.Refs, r.Cfg.DetectWorkers)
		})
		p.detect.Add(rst)
		for pi, det := range dets {
			rec.do(sp, "analysis.add_detections", func() { err = r.Agg.AddDetections(det) })
			if err != nil {
				return err
			}
			rec.do(sp, "store.dropday", func() { r.Store.DropDay(parts[pi].Source, day) })
		}
		net := pipe.LastNetStats()
		addNet(&p.net, net)
		if s.wire && net.FailureRate() > experiment.DefaultFailureThreshold {
			r.Agg.MarkDegraded(day)
		}
	}
	return nil
}

func (s *staged) table1() []experiment.SourceStats {
	var out []experiment.SourceStats
	for _, src := range []string{"com", "net", "org", "nl", measure.SourceAlexa} {
		if acc := s.stats[src]; acc != nil {
			st := acc.st
			st.UniqueSLDs = len(acc.unique)
			out = append(out, st)
		}
	}
	return out
}

// table2 replays Runner.Table2.
func (s *staged) table2(parent *ref, day simtime.Day) (*experiment.Table2Result, error) {
	r, rec := s.r, s.rec
	var tmp *store.Store
	var err error
	rec.do(parent, "measure.runday", func() { tmp, err = r.MaterializeDay(day) })
	if err != nil {
		return nil, err
	}
	var snap string
	rec.do(parent, "worldsim.rib_snapshot", func() { snap = r.World.RIBForDay(day).Snapshot() })
	var table pfx2as.Table
	rec.do(parent, "pfx2as.parse_build", func() {
		var entries []pfx2as.Entry
		if entries, err = pfx2as.Parse(strings.NewReader(snap)); err == nil {
			table = pfx2as.NewWalk(entries)
		}
	})
	if err != nil {
		return nil, err
	}
	probe := func(sld string) (netip.Addr, bool) { return r.World.ProbeApex(sld, day) }
	res := &experiment.Table2Result{}
	for i := range r.Refs.Providers {
		truth := r.Refs.Providers[i]
		var got core.ProviderRefs
		rec.do(parent, "core.discover", func() {
			got, err = core.Discover(tmp, worldsim.GTLDs(), day, r.World.Registry, truth.Name, table, probe,
				core.DiscoveryConfig{MinSupport: 1, MinASSupport: 2})
		})
		if err != nil {
			return nil, err
		}
		res.Discovered = append(res.Discovered, got)
		res.Truth = append(res.Truth, truth)
		res.Exact = append(res.Exact, slices.Equal(got.ASNs, truth.ASNs) &&
			slices.Equal(got.CNAMESLDs, truth.CNAMESLDs) && slices.Equal(got.NSSLDs, truth.NSSLDs))
	}
	return res, nil
}

// anomalies replays Runner.Anomalies(1).
func (s *staged) anomalies(parent *ref) ([]experiment.AnomalyReport, error) {
	r, rec := s.r, s.rec
	var out []experiment.AnomalyReport
	g := worldsim.GTLDs()
	ctx := context.Background()
	for p := range r.Refs.Providers {
		var swings []analysis.Swing
		rec.do(parent, "analysis.swings", func() { swings = r.Agg.LargestSwings(g, p, 1) })
		for _, sw := range swings {
			days := r.Agg.Days("com")
			prev := sw.Day - 1
			for i, d := range days {
				if d == sw.Day && i > 0 {
					prev = days[i-1]
				}
			}
			tmp := store.New()
			pipe := measure.New(r.World, tmp, measure.Config{Mode: measure.ModeDirect, Workers: r.Cfg.Workers})
			for _, d := range []simtime.Day{prev, sw.Day} {
				var err error
				rec.do(parent, "measure.runday", func() { err = pipe.RunDay(ctx, d) })
				if err != nil {
					return nil, err
				}
			}
			tmpAgg := analysis.NewAggregator(r.Refs, tmp, nil)
			var err error
			sp := rec.start(parent, "analysis.run")
			err = tmpAgg.Run(g)
			// Aggregator.Run detects through core; its own stage clock
			// says how much of the span that was.
			rec.add(sp, "core.detectrange", tmpAgg.DetectStats().Wall)
			sp.end()
			if err != nil {
				return nil, err
			}
			var att analysis.Attribution
			rec.do(parent, "analysis.attribute", func() { att = tmpAgg.Attribute(g, p, sw.Day) })
			out = append(out, experiment.AnomalyReport{Provider: r.Refs.Providers[p].Name, Attribution: att})
		}
	}
	return out, nil
}

// artifacts hashes every rendered file while writing it, so the digest
// covers exactly the bytes a user would find in the output directory.
type artifacts struct {
	dir string
	sum map[string]string
}

func (a *artifacts) write(name string, fn func(w io.Writer) error) error {
	path := filepath.Join(a.dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	h := sha256.New()
	if err := fn(io.MultiWriter(f, h)); err != nil {
		f.Close()
		return err
	}
	a.sum[name] = hex.EncodeToString(h.Sum(nil))
	return f.Close()
}

func (a *artifacts) digest() string {
	names := make([]string, 0, len(a.sum))
	for n := range a.sum {
		names = append(names, n)
	}
	slices.Sort(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %s\n", n, a.sum[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// renderAll mirrors cmd/dpsreport with -artifact all -csv -svg: every
// table and figure as text, then the CSV series, then the SVG charts.
// Like dpsreport it recomputes a figure for each output kind.
func renderAll(r *experiment.Runner, dir string, rec *Recorder, parent *ref, fns reproFns) (reportDigest, error) {
	art := &artifacts{dir: dir, sum: make(map[string]string)}
	win := r.Window()
	quiet := win.Start + simtime.Day(min(10, win.Len()/2))

	// file is what lands in report.txt; canon is what the digest covers.
	// They differ only in Table 1's compressed-size column, which depends
	// on the order the two measure workers happen to commit in. figures is
	// canon without Table 1 altogether: what wire and direct mode agree on
	// (wire stores a few more www/A rows, so Table 1's counts differ).
	var file, canon, figures bytes.Buffer
	out := io.MultiWriter(&file, &canon, &figures)
	text := func(fn func()) { rec.do(parent, "report.text", fn) }
	calc := func(name string, fn func()) { rec.do(parent, name, fn) }

	t1 := fns.table1()
	text(func() { report.Table1(&file, t1); fmt.Fprintln(&file) })
	for i := range t1 {
		t1[i].CompressedBytes = 0
	}
	report.Table1(&canon, t1)
	fmt.Fprintln(&canon)
	sp := rec.start(parent, "experiment.table2")
	t2, err := fns.table2(sp, quiet)
	sp.end()
	if err != nil {
		return reportDigest{}, err
	}
	text(func() { report.Table2(out, t2); fmt.Fprintln(out) })

	var f2 []experiment.Series
	calc("analysis.series", func() { f2 = r.Figure2() })
	text(func() { report.Figure2(out, f2, reportSamples); fmt.Fprintln(out) })
	var f3 []experiment.Figure3Panel
	calc("analysis.series", func() { f3 = r.Figure3() })
	text(func() { report.Figure3(out, f3, reportSamples); fmt.Fprintln(out) })
	var f4 experiment.Figure4Result
	calc("analysis.series", func() { f4 = r.Figure4() })
	text(func() { report.Figure4(out, f4); fmt.Fprintln(out) })
	var f5 analysis.GrowthResult
	calc("analysis.growth", func() { f5 = r.Figure5() })
	text(func() {
		report.Growth(out, "Figure 5: growth of DPS use in 50% of the DNS (smoothed, anomaly-cleaned)", f5, reportSamples)
		fmt.Fprintln(out)
	})
	var f6 experiment.Figure6Result
	calc("analysis.growth", func() { f6 = r.Figure6() })
	text(func() {
		report.Growth(out, "Figure 6a: growth of DPS use in .nl", f6.NL, reportSamples)
		report.Growth(out, "Figure 6b: growth of DPS use in the Alexa list", f6.Alexa, reportSamples)
		fmt.Fprintln(out)
	})
	var f7 []experiment.Figure7Panel
	calc("analysis.flux", func() { f7 = r.Figure7() })
	text(func() { report.Figure7(out, f7); fmt.Fprintln(out) })
	var f8 []experiment.Figure8Panel
	calc("analysis.peaks", func() { f8 = r.Figure8() })
	text(func() { report.Figure8(out, f8); fmt.Fprintln(out) })
	var cls []experiment.ClassificationRow
	calc("analysis.classify", func() { cls = r.Classification() })
	text(func() { report.Classification(out, cls); fmt.Fprintln(out) })
	sp = rec.start(parent, "experiment.anomalies")
	an, err := fns.anomalies(sp)
	sp.end()
	if err != nil {
		return reportDigest{}, err
	}
	text(func() { report.Anomalies(&file, an) })
	// Attribute orders NS SLDs of equal share by map iteration, so the
	// name it prints for a tie changes from run to run; the digest sees
	// ties broken by name.
	for i := range an {
		shared := slices.Clone(an[i].Attribution.Shared)
		slices.SortStableFunc(shared, func(a, b analysis.SLDShare) int {
			if a.Fraction != b.Fraction {
				return cmp.Compare(b.Fraction, a.Fraction)
			}
			return cmp.Compare(a.SLD, b.SLD)
		})
		an[i].Attribution.Shared = shared
	}
	report.Anomalies(io.MultiWriter(&canon, &figures), an)
	if err := art.write("report.txt", func(w io.Writer) error { _, err := w.Write(file.Bytes()); return err }); err != nil {
		return reportDigest{}, err
	}
	textSum := func(b *bytes.Buffer) string {
		sum := sha256.Sum256(b.Bytes())
		return hex.EncodeToString(sum[:])
	}

	// CSV series (dpsreport's writeCSVs).
	csv := func(name string, fn func(w io.Writer) error) error {
		var err error
		rec.do(parent, "report.csv", func() { err = art.write(filepath.Join("csv", name), fn) })
		return err
	}
	series := func(days []simtime.Day, cols map[string][]float64, order []string) func(io.Writer) error {
		return func(w io.Writer) error { return report.SeriesCSV(w, days, cols, order) }
	}
	calc("analysis.series", func() { f2 = r.Figure2() })
	cols := map[string][]float64{}
	var order []string
	for _, s := range f2 {
		cols[s.Name] = s.Vals
		order = append(order, s.Name)
	}
	if err := csv("figure2.csv", series(f2[0].Days, cols, order)); err != nil {
		return reportDigest{}, err
	}
	calc("analysis.series", func() { f3 = r.Figure3() })
	for _, p := range f3 {
		err := csv("figure3_"+p.Provider+".csv", series(p.Days, map[string][]float64{
			"total": p.Total, "as": p.AS, "cname": p.CNAME, "ns": p.NS,
		}, []string{"total", "as", "cname", "ns"}))
		if err != nil {
			return reportDigest{}, err
		}
	}
	calc("analysis.growth", func() { f5 = r.Figure5() })
	if len(f5.Days) > 0 {
		err := csv("figure5.csv", series(f5.Days, map[string][]float64{
			"adoption": f5.Adoption, "expansion": f5.Expansion,
		}, []string{"adoption", "expansion"}))
		if err != nil {
			return reportDigest{}, err
		}
	}
	calc("analysis.flux", func() { f7 = r.Figure7() })
	err = csv("figure7.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "provider,bin_start,in,out,delta")
		for _, p := range f7 {
			for _, b := range p.Bins {
				fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", p.Provider, b.Start, b.In, b.Out, b.Delta())
			}
		}
		return nil
	})
	if err != nil {
		return reportDigest{}, err
	}
	calc("analysis.peaks", func() { f8 = r.Figure8() })
	err = csv("figure8.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "provider,duration_days,cdf")
		for _, p := range f8 {
			days, frac := p.Stats.CDF()
			for i := range days {
				fmt.Fprintf(w, "%s,%d,%.4f\n", p.Provider, days[i], frac[i])
			}
		}
		return nil
	})
	if err != nil {
		return reportDigest{}, err
	}

	// SVG charts (dpsreport's writeSVGs).
	svg := func(name, title string, days []simtime.Day, ss []report.SVGSeries, logY bool) error {
		var err error
		rec.do(parent, "report.svg", func() {
			err = art.write(filepath.Join("svg", name), func(w io.Writer) error {
				return report.WriteSVGChart(w, title, days, ss, logY)
			})
		})
		return err
	}
	calc("analysis.series", func() { f2 = r.Figure2() })
	var s2 []report.SVGSeries
	for _, s := range f2 {
		s2 = append(s2, report.SVGSeries{Name: s.Name, Vals: s.Vals})
	}
	if err := svg("figure2.svg", "Figure 2: DPS use and zone breakdown", f2[0].Days, s2, false); err != nil {
		return reportDigest{}, err
	}
	calc("analysis.series", func() { f3 = r.Figure3() })
	for _, p := range f3 {
		err := svg("figure3_"+p.Provider+".svg", "Figure 3: "+p.Provider, p.Days, []report.SVGSeries{
			{Name: "total", Vals: p.Total}, {Name: "AS", Vals: p.AS},
			{Name: "CNAME", Vals: p.CNAME}, {Name: "NS", Vals: p.NS},
		}, true)
		if err != nil {
			return reportDigest{}, err
		}
	}
	calc("analysis.growth", func() { f5 = r.Figure5() })
	if len(f5.Days) > 0 {
		err := svg("figure5.svg", "Figure 5: growth of DPS use in 50% of the DNS", f5.Days, []report.SVGSeries{
			{Name: "DPS adoption", Vals: f5.Adoption}, {Name: "overall expansion", Vals: f5.Expansion},
		}, false)
		if err != nil {
			return reportDigest{}, err
		}
	}
	calc("analysis.growth", func() { f6 = r.Figure6() })
	if len(f6.NL.Days) > 0 {
		err := svg("figure6.svg", "Figure 6: growth of DPS use in .nl and Alexa", f6.NL.Days, []report.SVGSeries{
			{Name: ".nl adoption", Vals: f6.NL.Adoption},
			{Name: ".nl expansion", Vals: f6.NL.Expansion},
			{Name: "Alexa adoption", Vals: f6.Alexa.Adoption},
		}, false)
		if err != nil {
			return reportDigest{}, err
		}
	}
	var d reportDigest
	art.sum["report.txt"] = textSum(&canon)
	d.full = art.digest()
	art.sum["report.txt"] = textSum(&figures)
	d.figures = art.digest()
	return d, nil
}

// reportDigest digests one rendered report: full covers every table,
// figure, CSV and SVG; figures leaves Table 1 out.
type reportDigest struct{ full, figures string }

// ---- the workload ----

type reproWorkload struct {
	name   string
	size   reproSize
	golden map[string]string
	// direct is the digest of the direct-mode reference run wire mode
	// makes during set-up.
	direct reportDigest
}

func (w *reproWorkload) setup(e *env) error {
	dir, err := e.mkdir("setup")
	if err != nil {
		return err
	}
	if !w.size.Wire {
		// Warm-up: page the program in and let lazy package state
		// (ground truth tables, metric registration) settle.
		_, err := runRepro(reproSize{Scale: w.size.WarmScale, Days: w.size.WarmDays}, dir, nil, nil)
		return err
	}
	direct := w.size
	direct.Wire = false
	p, err := runRepro(direct, dir, nil, nil)
	w.direct = p.digest
	return err
}

// check counts a pass's attempts and failures: one per measured
// partition or, in wire mode, per resolution, plus the digest check.
func (w *reproWorkload) check(p reproPass, t *tally) {
	if w.size.Wire {
		t.add(int(p.net.Resolutions), int(p.net.GaveUp))
	} else {
		t.add(p.partitions, 0)
	}
	t.digest(w.name+" report vs golden.json", p.digest.full, w.golden[w.size.goldenKey()])
	if w.size.Wire {
		t.digest(w.name+" figures vs direct run", p.digest.figures, w.direct.figures)
	}
}

func (w *reproWorkload) pass(e *env, t *tally) (e2e, error) {
	dir, err := e.mkdir("artifacts")
	if err != nil {
		return e2e{}, err
	}
	p, err := runRepro(w.size, dir, nil, nil)
	if err != nil {
		return e2e{}, err
	}
	w.check(p, t)
	return e2e{
		wall: []float64{p.wall()}, write: []float64{p.runS}, read: []float64{p.renderS},
		allocMB: p.allocMB, bytesPerRow: p.bytesPerRow,
	}, nil
}

// traced runs one untraced and one staged pass, then the stand-alone
// replays of what RunDay does internally, and derives the layer metrics.
func (w *reproWorkload) traced(e *env, rec *Recorder, t *tally) (map[string]float64, error) {
	m := make(map[string]float64)
	// Four untraced and four traced passes, alternating, so that a slow
	// spell of the machine falls on both kinds; the layer numbers come
	// from the last traced pass.
	var whole, st reproPass
	var wholeWall, stagedWall float64
	var root *ref
	var mid, after obs.Snapshot
	var c0, c1 clock
	for i := 0; i < 4; i++ {
		dir, err := e.mkdir("artifacts")
		if err != nil {
			return nil, err
		}
		if whole, err = runRepro(w.size, dir, nil, nil); err != nil {
			return nil, err
		}
		w.check(whole, t)
		wholeWall += whole.wall()

		if dir, err = e.mkdir("artifacts"); err != nil {
			return nil, err
		}
		mid = obs.Default().Snapshot()
		c0 = readClock()
		root = rec.start(nil, "bench.pass")
		st, err = runRepro(w.size, dir, rec, root)
		root.end()
		if err != nil {
			return nil, err
		}
		c1 = readClock()
		after = obs.Default().Snapshot()
		w.check(st, t)
		t.digest(w.name+" staged vs Runner.Run", st.digest.full, whole.digest.full)
		stagedWall += st.wall()
	}

	rp, err := replayMeasure(w.size, rec)
	if err != nil {
		return nil, err
	}

	spans := spanSet(rec.snapshot()).under(root.id)
	led := buildLedger(spans, root.id)
	od := obsDelta{mid, after}
	days := float64(w.size.Days)

	m["trace.overhead_frac"] = stagedWall/wholeWall - 1
	m["experiment.unattributed_frac"] = led.unattributed()
	for layer, d := range led.Layers {
		m[layer+".self_s"] = d.Seconds()
	}
	m["worldsim.new_s"] = spans.total("worldsim.new").Seconds()
	m["worldsim.statefor_us_per_domain"] = rp.stateForUS
	m["worldsim.rib_snapshot_ms_per_day"] = rp.ribMS
	m["worldsim.buildwire_ms_per_day"] = rp.buildWireMS
	m["pfx2as.parse_build_ms_per_day"] = rp.pfxBuildMS
	m["pfx2as.lookup_ns"] = rp.pfxLookupNS
	m["store.append_rows_per_s"] = rp.appendRowsPerS
	m["store.commit_ms_per_partition"] = rp.commitMS
	m["store.resident_rows_max"] = st.residentRowsMax

	runday := spans.durations("measure.runday")
	loopDays := runday[:min(len(runday), w.size.Days)] // the day loop; the rest are Table2/Anomalies re-measurements
	var loopS float64
	for _, d := range loopDays {
		loopS += d
	}
	m["measure.runday_s"] = spans.total("measure.runday").Seconds()
	m["measure.domains_per_s"] = ratio(od.counter("measure_domains_total"), m["measure.runday_s"])
	m["measure.stage_zone_s"] = od.histSum(`measure_stage_seconds{stage="zone_acquisition"}`)
	m["measure.stage_resolution_s"] = od.histSum(`measure_stage_seconds{stage="resolution"}`)
	m["measure.stage_storage_s"] = od.histSum(`measure_stage_seconds{stage="storage"}`)
	// Estimate: CPU spent inside the day loop's RunDay calls minus the CPU
	// the stand-alone replays of its worldsim, pfx2as and store work took.
	m["measure.self_cpu_s"] = st.runCPU.Seconds() - rp.perDayCPU.Seconds()*days

	m["core.detect_rows_per_s"] = ratio(float64(st.detect.Rows), st.detect.Busy().Seconds())
	m["core.scan_s"] = st.detect.Scan.Seconds()
	m["core.merge_s"] = st.detect.Merge.Seconds()
	m["core.barrier_s"] = st.detect.Barrier.Seconds()
	m["core.queue_wait_s"] = st.detect.QueueWait.Seconds()
	m["core.utilization"] = st.detect.Utilization()
	m["core.discover_s"] = spans.total("core.discover").Seconds()

	m["analysis.add_detections_s"] = spans.total("analysis.add_detections").Seconds()
	m["analysis.series_ms"] = spans.total("analysis.series").Seconds() * 1e3
	m["analysis.growth_ms"] = spans.total("analysis.growth").Seconds() * 1e3
	m["analysis.flux_ms"] = spans.total("analysis.flux").Seconds() * 1e3
	m["analysis.peaks_ms"] = spans.total("analysis.peaks").Seconds() * 1e3
	m["analysis.classify_ms"] = spans.total("analysis.classify").Seconds() * 1e3
	m["analysis.attribute_s"] = spans.total("analysis.attribute").Seconds()

	loopDetect := st.detect.Wall.Seconds()
	m["experiment.run_s"] = whole.runS
	m["experiment.orchestration_self_s"] = whole.runS - (loopS + loopDetect +
		spans.total("analysis.add_detections").Seconds() + spans.total("store.dropday").Seconds())
	m["experiment.table2_s"] = spans.total("experiment.table2").Seconds()
	m["experiment.anomalies_s"] = spans.total("experiment.anomalies").Seconds()
	// Estimate: every cost scales with the domain count (scale divisor);
	// the day loop also scales with the day count.
	perScale := float64(w.size.Scale) / 1000
	m["experiment.projected_550d_s"] = perScale * (whole.runS/days*550 + whole.newS + whole.renderS)

	m["report.text_ms"] = spans.total("report.text").Seconds() * 1e3
	m["report.csv_ms"] = spans.total("report.csv").Seconds() * 1e3
	m["report.svg_ms"] = spans.total("report.svg").Seconds() * 1e3

	if w.size.Wire {
		m["dnswire.pack_ns"], m["dnswire.unpack_ns"] = dnswireMicro()
		q := after.Histogram("dns_client_query_seconds")
		m["dnsclient.query_p50_us"] = q.P50 * 1e6
		m["dnsclient.query_p99_us"] = q.P99 * 1e6
		m["dnsclient.queries_per_resolution"] = ratio(float64(st.net.Queries), float64(st.net.Resolutions))
		m["dnsclient.gaveup_frac"] = ratio(float64(st.net.GaveUp), float64(st.net.Resolutions))
		m["dnsserver.queries"] = od.counter("dns_server_queries_total")
		m["transport.packets"] = od.counter("transport_packets_sent_total")
		m["transport.bytes"] = od.counter("transport_bytes_sent_total")
	}
	procMetrics(m, c0, c1)
	return m, nil
}

// procMetrics fills the process-level diagnostics over [a, b].
func procMetrics(m map[string]float64, a, b clock) {
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["proc.gc_cpu_frac"] = b.gcCPUFrac
	m["proc.mallocs"] = float64(b.mallocs - a.mallocs)
}
