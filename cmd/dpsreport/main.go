// Command dpsreport reproduces the paper's evaluation: it generates the
// synthetic world, streams the daily active-DNS measurement over the
// window through experiment.Runner — measure, store, detect, aggregate —
// and prints every table and figure. -scale divides every paper
// magnitude (1000 reproduces the paper at 1:1000); -days truncates the
// 550-day window; -csv and -svg also write the series for plotting; -out
// keeps every partition and saves the dataset as a .dpsa file for dpsapi
// and dpsdata (-artifact table1 is its per-source summary).
//
// -mode wire resolves every query through authoritative servers over the
// in-memory network instead of deriving the records in process. A wire
// run accounts each day's network (queries, lost, given up), commits a
// day whose failure rate exceeds the threshold as degraded, which the
// growth figures bridge (§4.2), and prints the degraded-day ledger before
// the artifacts. -fault-scenario injects a network or server chaos
// scenario into every wire day (coordination scenarios belong to
// dpscoord); the same -fault-seed reproduces the same faults, byte for
// byte. -wire-timeout lowers the resolver timeout so losses cost ms.
//
// One structured log line per measured day reports its rows, queries and
// latency quantiles; -quiet suppresses it. -metrics-addr serves
// /metrics, /debug/vars, /debug/pprof and, when tracing, /debug/traces,
// and stays up after the run until interrupted; -prof-mutex/-prof-block
// arm the contention profilers. -trace-out writes <base>.json (Chrome
// trace_event) and <base>.jsonl; -trace-sample sets the per-domain
// sampling rate and -trace-slow logs every span at least that long.
//
// SIGINT/SIGTERM cancel the run: the day in flight stops between domains
// and its partial partitions are dropped, traces flush, the ledger of the
// fully measured days prints, -out saves those days, no artifact is
// rendered, and the process exits 130.
//
// Usage:
//
//	dpsreport [-scale 1000] [-days 0] [-workers N] [-samples 24]
//	          [-artifact all|table1|table2|fig2|...|fig8|classification|anomalies]
//	          [-csv DIR] [-svg DIR] [-out data.dpsa] [-mode direct|wire]
//	          [-fault-scenario flaky-1pct] [-fault-seed 7] [-wire-timeout 100]
//	          [-metrics-addr :9090] [-prof-mutex 5] [-prof-block 0]
//	          [-quiet] [-log-json]
//	          [-trace-out traces] [-trace-sample 0.01] [-trace-slow 250ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"dpsadopt/cmd/internal/cli"
	"dpsadopt/internal/experiment"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/report"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/trace"
)

// artifacts are the tables and figures -artifact selects, in print
// order; their names also make -artifact's usage string.
var artifacts = []struct {
	name  string
	print func(out io.Writer, r *experiment.Runner, samples int, quietDay simtime.Day) error
}{
	{"table1", func(out io.Writer, r *experiment.Runner, _ int, _ simtime.Day) error {
		report.Table1(out, r.Table1())
		return nil
	}},
	{"table2", func(out io.Writer, r *experiment.Runner, _ int, qd simtime.Day) error {
		if !r.Window().Contains(qd) {
			fmt.Fprintf(out, "Table 2: quiet day %s outside run window %s; skipped\n", qd, r.Window())
			return nil
		}
		t2, err := r.Table2(qd)
		if err != nil {
			return err
		}
		report.Table2(out, t2)
		return nil
	}},
	{"fig2", func(out io.Writer, r *experiment.Runner, samples int, _ simtime.Day) error {
		report.Figure2(out, r.Figure2(), samples)
		return nil
	}},
	{"fig3", func(out io.Writer, r *experiment.Runner, samples int, _ simtime.Day) error {
		report.Figure3(out, r.Figure3(), samples)
		return nil
	}},
	{"fig4", func(out io.Writer, r *experiment.Runner, _ int, _ simtime.Day) error {
		report.Figure4(out, r.Figure4())
		return nil
	}},
	{"fig5", func(out io.Writer, r *experiment.Runner, samples int, _ simtime.Day) error {
		report.Growth(out, "Figure 5: growth of DPS use in 50% of the DNS (smoothed, anomaly-cleaned)", r.Figure5(), samples)
		return nil
	}},
	{"fig6", func(out io.Writer, r *experiment.Runner, samples int, _ simtime.Day) error {
		f6 := r.Figure6()
		report.Growth(out, "Figure 6a: growth of DPS use in .nl", f6.NL, samples)
		report.Growth(out, "Figure 6b: growth of DPS use in the Alexa list", f6.Alexa, samples)
		return nil
	}},
	{"fig7", func(out io.Writer, r *experiment.Runner, _ int, _ simtime.Day) error {
		report.Figure7(out, r.Figure7())
		return nil
	}},
	{"fig8", func(out io.Writer, r *experiment.Runner, _ int, _ simtime.Day) error {
		report.Figure8(out, r.Figure8())
		return nil
	}},
	{"classification", func(out io.Writer, r *experiment.Runner, _ int, _ simtime.Day) error {
		report.Classification(out, r.Classification())
		return nil
	}},
	{"anomalies", func(out io.Writer, r *experiment.Runner, _ int, _ simtime.Day) error {
		an, err := r.Anomalies(1)
		if err != nil {
			return err
		}
		report.Anomalies(out, an)
		return nil
	}},
}

func main() {
	names := []string{"all"}
	for _, a := range artifacts {
		names = append(names, a.name)
	}
	var (
		scale       = flag.Int("scale", 1000, "world scale divisor (1000 = paper at 1:1000)")
		days        = flag.Int("days", 0, "truncate the run to N days (0 = full 550)")
		workers     = flag.Int("workers", 8, "measurement workers")
		samples     = flag.Int("samples", 24, "rows per rendered series")
		artifact    = flag.String("artifact", "all", "which artifact to print ("+strings.Join(names, ", ")+")")
		csvDir      = flag.String("csv", "", "directory for CSV series (optional)")
		svgDir      = flag.String("svg", "", "directory for SVG figures (optional)")
		quietDay    = flag.String("quiet-day", "2015-07-25", "anomaly-free day for Table 2 discovery")
		mode        = flag.String("mode", "direct", "direct or wire")
		out         = flag.String("out", "", "write the dataset to this .dpsa file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/traces on this address")
		traceOut    = flag.String("trace-out", "", "enable tracing; write <base>.json (Chrome trace_event) and <base>.jsonl")
		traceSample = flag.Float64("trace-sample", 0.01, "per-domain trace sampling rate in [0,1]")
		traceSlow   = flag.Duration("trace-slow", 0, "log spans at or above this duration with their full path (0 = off)")
		wireTimeout = flag.Int("wire-timeout", 0, "wire-mode resolver timeout in ms (0 = dnsclient default; lower it under chaos so losses cost ms, not s)")
	)
	flags := cli.Parse("dpsreport", cli.Logging|cli.Profiling|cli.Faults)
	logger := obs.Logger()
	// Every argument is checked before the measurement pass, which takes
	// minutes at the default scale.
	if !slices.Contains(names, *artifact) {
		log.Fatalf("unknown -artifact %q (want one of %s)", *artifact, strings.Join(names, ", "))
	}
	qd, err := simtime.Parse(*quietDay)
	if err != nil {
		log.Fatal(err)
	}
	if *mode != "direct" && *mode != "wire" {
		log.Fatalf("unknown -mode %q (want direct or wire)", *mode)
	}
	wire := *mode == "wire"
	if flags.Fault.CoordActive() {
		log.Fatalf("-fault-scenario %s injects coordination-plane faults: use dpscoord", flags.FaultScenario)
	}

	tracer, err := buildTracer(*traceOut, *traceSample, *traceSlow)
	if err != nil {
		log.Fatal(err)
	}
	if tracer != nil {
		trace.SetDefault(tracer)
		obs.Handle("/debug/traces", trace.Handler(tracer))
		logger.Info("tracing enabled",
			"sample", *traceSample, "slow", traceSlow.String(), "out", *traceOut)
	}
	defer cli.ServeMetrics(*metricsAddr)()

	// SIGINT/SIGTERM cancel the run: the day in flight is dropped, and
	// traces, the ledger and the measured days still flush below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var ledger []experiment.DayAccounting
	var measured int
	var dayStart time.Time
	r, err := experiment.New(experiment.Config{
		Scale:         *scale,
		Workers:       *workers,
		Days:          *days,
		KeepStore:     *out != "",
		Wire:          wire,
		WireTimeout:   *wireTimeout,
		FaultScenario: flags.FaultScenario,
		FaultSeed:     flags.FaultSeed,
		OnDayProgress: func(p experiment.DayProgress) {
			attrs := []any{
				"day", p.Day.String(),
				"done", fmt.Sprintf("%d/%d", p.Done, p.Total),
				"rows", p.Rows,
				"detected", p.Detected,
				"elapsed", time.Since(dayStart).Round(time.Millisecond).String(),
			}
			if wire {
				a := experiment.AccountDay(p.Day, p.Net)
				ledger = append(ledger, a)
				// The quantiles cover every query of the run so far.
				lat := obs.Default().Snapshot().Histogram("dns_client_query_seconds")
				attrs = append(attrs,
					"queries", a.Queries,
					"p50_ms", fmt.Sprintf("%.3f", lat.P50*1000),
					"p99_ms", fmt.Sprintf("%.3f", lat.P99*1000),
					"lost", a.Lost,
					"gave_up", a.GaveUp,
					"failure_rate", fmt.Sprintf("%.4f", a.FailureRate),
					"degraded", a.Degraded,
				)
			}
			logger.Info("day complete", attrs...)
			dayStart, measured = time.Now(), p.Done
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	logger.Info("world built", "stats", r.World.Stats())
	start := time.Now()
	dayStart = start
	err = r.Run(ctx)
	interrupted := err != nil && ctx.Err() != nil
	if err != nil && !interrupted {
		log.Fatal(err)
	}
	if interrupted {
		logger.Warn("run interrupted; flushing the fully measured days", "days", measured)
	}
	if err := tracer.Close(); err != nil {
		logger.Warn("trace flush failed", "err", err)
	} else if tracer != nil {
		logger.Info("traces written", "out", *traceOut, "recent", tracer.Ring().Len())
	}
	logger.Info("run complete", "elapsed", time.Since(start).Round(time.Millisecond).String(), "interrupted", interrupted)

	if len(ledger) > 0 {
		printLedger(ledger, flags)
	}
	if *out != "" {
		if err := r.Store.Save(*out); err != nil {
			log.Fatal(err)
		}
		logger.Info("dataset written", "path", *out)
	}
	if interrupted {
		os.Exit(130) // 128 + SIGINT, the conventional interrupted exit
	}

	for i, a := range artifacts {
		if *artifact != "all" && *artifact != a.name {
			continue
		}
		if err := a.print(os.Stdout, r, *samples, qd); err != nil {
			log.Fatal(err)
		}
		if i < len(artifacts)-1 {
			fmt.Println()
		}
	}
	if *csvDir != "" {
		if err := writeCSVs(r, *csvDir); err != nil {
			log.Fatal(err)
		}
		logger.Info("CSV series written", "dir", *csvDir)
	}
	if *svgDir != "" {
		if err := writeSVGs(r, *svgDir); err != nil {
			log.Fatal(err)
		}
		logger.Info("SVG figures written", "dir", *svgDir)
	}

	if *metricsAddr != "" {
		logger.Info("run finished; still serving metrics, Ctrl-C to exit")
		<-ctx.Done()
	}
}

// printLedger prints a wire run's degraded-day ledger: each measured
// day's network accounting and whether it was committed degraded.
func printLedger(ledger []experiment.DayAccounting, flags *cli.Flags) {
	scenario := flags.FaultScenario
	if scenario == "" {
		scenario = "none"
	}
	fmt.Printf("degraded-day ledger (scenario %s, seed %d):\n", scenario, flags.FaultSeed)
	fmt.Printf("%-12s %10s %8s %8s %8s %8s\n", "day", "queries", "lost", "gaveup", "rate", "status")
	for _, a := range ledger {
		status := "ok"
		if a.Degraded {
			status = "DEGRADED"
		}
		fmt.Printf("%-12s %10d %8d %8d %8.4f %8s\n", a.Day, a.Queries, a.Lost, a.GaveUp, a.FailureRate, status)
	}
	fmt.Println()
}

// buildTracer assembles the run's tracer from the -trace-* flags.
// Tracing is enabled by -trace-out (exports + ring) or by -trace-slow
// alone (slow-span logging and /debug/traces, no files).
func buildTracer(outBase string, sample float64, slow time.Duration) (*trace.Tracer, error) {
	if outBase == "" && slow == 0 {
		return nil, nil
	}
	cfg := trace.Config{Sample: sample, Slow: slow, RingSize: 128}
	if outBase != "" {
		base := strings.TrimSuffix(outBase, ".json")
		chrome, err := trace.NewChromeFile(base + ".json")
		if err != nil {
			return nil, err
		}
		jf, err := os.Create(base + ".jsonl")
		if err != nil {
			chrome.Close()
			return nil, err
		}
		cfg.Exporters = []trace.Exporter{chrome, trace.NewJSONL(jf)}
	}
	return trace.New(cfg), nil
}

func writeSVGs(r *experiment.Runner, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeChart := func(name, title string, days []simtime.Day, series []report.SVGSeries, logY bool) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return report.WriteSVGChart(f, title, days, series, logY)
	}
	f2 := r.Figure2()
	var s2 []report.SVGSeries
	for _, s := range f2 {
		s2 = append(s2, report.SVGSeries{Name: s.Name, Vals: s.Vals})
	}
	if err := writeChart("figure2.svg", "Figure 2: DPS use and zone breakdown", f2[0].Days, s2, false); err != nil {
		return err
	}
	for _, p := range r.Figure3() {
		err := writeChart("figure3_"+p.Provider+".svg", "Figure 3: "+p.Provider, p.Days, []report.SVGSeries{
			{Name: "total", Vals: p.Total}, {Name: "AS", Vals: p.AS},
			{Name: "CNAME", Vals: p.CNAME}, {Name: "NS", Vals: p.NS},
		}, true)
		if err != nil {
			return err
		}
	}
	g := r.Figure5()
	if len(g.Days) > 0 {
		if err := writeChart("figure5.svg", "Figure 5: growth of DPS use in 50% of the DNS", g.Days, []report.SVGSeries{
			{Name: "DPS adoption", Vals: g.Adoption}, {Name: "overall expansion", Vals: g.Expansion},
		}, false); err != nil {
			return err
		}
	}
	f6 := r.Figure6()
	if len(f6.NL.Days) > 0 {
		if err := writeChart("figure6.svg", "Figure 6: growth of DPS use in .nl and Alexa", f6.NL.Days, []report.SVGSeries{
			{Name: ".nl adoption", Vals: f6.NL.Adoption},
			{Name: ".nl expansion", Vals: f6.NL.Expansion},
			{Name: "Alexa adoption", Vals: f6.Alexa.Adoption},
		}, false); err != nil {
			return err
		}
	}
	return nil
}

func writeCSVs(r *experiment.Runner, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, days []simtime.Day, cols map[string][]float64, order []string) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return report.SeriesCSV(f, days, cols, order)
	}
	f2 := r.Figure2()
	cols := map[string][]float64{}
	var order []string
	for _, s := range f2 {
		cols[s.Name] = s.Vals
		order = append(order, s.Name)
	}
	if err := write("figure2.csv", f2[0].Days, cols, order); err != nil {
		return err
	}
	for _, p := range r.Figure3() {
		if err := write("figure3_"+p.Provider+".csv", p.Days, map[string][]float64{
			"total": p.Total, "as": p.AS, "cname": p.CNAME, "ns": p.NS,
		}, []string{"total", "as", "cname", "ns"}); err != nil {
			return err
		}
	}
	g := r.Figure5()
	if len(g.Days) > 0 {
		if err := write("figure5.csv", g.Days, map[string][]float64{
			"adoption": g.Adoption, "expansion": g.Expansion,
		}, []string{"adoption", "expansion"}); err != nil {
			return err
		}
	}
	// Fig 7: one CSV with per-provider in/out/delta per bin.
	f7, err := os.Create(filepath.Join(dir, "figure7.csv"))
	if err != nil {
		return err
	}
	fmt.Fprintln(f7, "provider,bin_start,in,out,delta")
	for _, p := range r.Figure7() {
		for _, b := range p.Bins {
			fmt.Fprintf(f7, "%s,%s,%d,%d,%d\n", p.Provider, b.Start, b.In, b.Out, b.Delta())
		}
	}
	if err := f7.Close(); err != nil {
		return err
	}
	// Fig 8: per-provider CDF points.
	f8, err := os.Create(filepath.Join(dir, "figure8.csv"))
	if err != nil {
		return err
	}
	fmt.Fprintln(f8, "provider,duration_days,cdf")
	for _, p := range r.Figure8() {
		days, frac := p.Stats.CDF()
		for i := range days {
			fmt.Fprintf(f8, "%s,%d,%.4f\n", p.Provider, days[i], frac[i])
		}
	}
	return f8.Close()
}
