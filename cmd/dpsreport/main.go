// Command dpsreport reproduces the paper's evaluation: it generates the
// synthetic world, streams the daily active-DNS measurement over the full
// window, and regenerates every table and figure.
//
// Usage:
//
//	dpsreport [-scale 1000] [-days 0] [-workers N] [-samples 24]
//	          [-artifact all|table1|table2|fig2|...|fig8|classification|anomalies]
//	          [-csv DIR]
//
// -scale divides every paper magnitude (1000 reproduces the paper at
// 1:1000); -days truncates the 550-day window for quick looks; -csv also
// writes machine-readable series for external plotting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"dpsadopt/cmd/internal/cli"
	"dpsadopt/internal/experiment"
	"dpsadopt/internal/report"
	"dpsadopt/internal/simtime"
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
		scale    = flag.Int("scale", 1000, "world scale divisor (1000 = paper at 1:1000)")
		days     = flag.Int("days", 0, "truncate the run to N days (0 = full 550)")
		workers  = flag.Int("workers", 8, "measurement workers")
		samples  = flag.Int("samples", 24, "rows per rendered series")
		artifact = flag.String("artifact", "all", "which artifact to print ("+strings.Join(names, ", ")+")")
		csvDir   = flag.String("csv", "", "directory for CSV series (optional)")
		svgDir   = flag.String("svg", "", "directory for SVG figures (optional)")
		quietDay = flag.String("quiet-day", "2015-07-25", "anomaly-free day for Table 2 discovery")
	)
	cli.Parse("dpsreport", 0)
	// Both are checked before the measurement pass, which takes minutes
	// at the default scale.
	if !slices.Contains(names, *artifact) {
		log.Fatalf("unknown -artifact %q (want one of %s)", *artifact, strings.Join(names, ", "))
	}
	qd, err := simtime.Parse(*quietDay)
	if err != nil {
		log.Fatal(err)
	}

	r, err := experiment.New(experiment.Config{
		Scale:   *scale,
		Workers: *workers,
		Days:    *days,
		OnDayProgress: func(p experiment.DayProgress) {
			if p.Done%50 == 0 || p.Done == p.Total {
				fmt.Fprintf(os.Stderr, "measured %d/%d days\n", p.Done, p.Total)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "world: %s\n", r.World.Stats())
	start := time.Now()
	if err := r.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "measurement+analysis pass: %s\n", time.Since(start).Round(time.Millisecond))

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
		fmt.Fprintf(os.Stderr, "CSV series written to %s\n", *csvDir)
	}
	if *svgDir != "" {
		if err := writeSVGs(r, *svgDir); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "SVG figures written to %s\n", *svgDir)
	}
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
