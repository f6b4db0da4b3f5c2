package experiment

import (
	"context"
	"errors"
	"testing"

	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
)

// shortRun executes a 160-day run at coarse scale, covering the March 2015
// Wix/Incapsula peak. Cached across tests.
var cachedRunner *Runner

func shortRun(t testing.TB) *Runner {
	t.Helper()
	if cachedRunner != nil {
		return cachedRunner
	}
	r, err := New(Config{Scale: 20000, Workers: 4, Days: 160})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cachedRunner = r
	return r
}

func TestRunnerTable1(t *testing.T) {
	r := shortRun(t)
	rows := r.Table1()
	if len(rows) != 3 { // nl/alexa windows not reached in 160 days
		t.Fatalf("table 1 rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Days != 160 {
			t.Errorf("%s days = %d", row.Source, row.Days)
		}
		if row.DataPoints == 0 || row.UniqueSLDs == 0 || row.CompressedBytes == 0 {
			t.Errorf("%s stats empty: %+v", row.Source, row)
		}
		// Unique SLDs over the window exceed any single day's population.
		if int64(row.UniqueSLDs) > row.DataPoints {
			t.Errorf("%s: more SLDs than data points", row.Source)
		}
	}
	if rows[0].Source != "com" || rows[0].UniqueSLDs < rows[1].UniqueSLDs {
		t.Errorf("com should lead: %+v", rows[:2])
	}
}

func TestRunnerFigure2PeakVisible(t *testing.T) {
	r := shortRun(t)
	series := r.Figure2()
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	comb := series[3]
	if comb.Name != "combined" {
		t.Fatal("last series not combined")
	}
	peakDay := simtime.FromDate(2015, 3, 5)
	quietIdx, peakIdx := -1, -1
	for i, d := range comb.Days {
		if d == peakDay {
			peakIdx = i
		}
		if d == peakDay+30 {
			quietIdx = i
		}
	}
	if peakIdx < 0 || quietIdx < 0 {
		t.Fatal("days missing")
	}
	if comb.Vals[peakIdx] <= comb.Vals[quietIdx]*1.1 {
		t.Errorf("no March 2015 peak: peak %v quiet %v", comb.Vals[peakIdx], comb.Vals[quietIdx])
	}
	// The com series must dominate net and org (Fig 4 distribution).
	for i, d := range comb.Days {
		_ = d
		if series[0].Vals[i] < series[1].Vals[i] || series[0].Vals[i] < series[2].Vals[i] {
			t.Fatalf("com not dominant at index %d", i)
		}
	}
}

func TestRunnerFigure3Incapsula(t *testing.T) {
	r := shortRun(t)
	panels := r.Figure3()
	if len(panels) != 9 {
		t.Fatalf("panels = %d", len(panels))
	}
	var inc *Figure3Panel
	for i := range panels {
		if panels[i].Provider == "Incapsula" {
			inc = &panels[i]
		}
	}
	if inc == nil {
		t.Fatal("no Incapsula panel")
	}
	// At the Wix peak the AS line rises with the total while CNAME stays
	// flat (diverted Wix domains reference by AS only).
	peakDay := simtime.FromDate(2015, 3, 5)
	var peakI, quietI int
	for i, d := range inc.Days {
		if d == peakDay {
			peakI = i
		}
		if d == peakDay+30 {
			quietI = i
		}
	}
	if inc.AS[peakI] <= inc.AS[quietI] {
		t.Errorf("Incapsula AS line flat at peak: %v vs %v", inc.AS[peakI], inc.AS[quietI])
	}
	if inc.CNAME[peakI] > inc.CNAME[quietI]*1.5 {
		t.Errorf("Incapsula CNAME line spiked: %v vs %v", inc.CNAME[peakI], inc.CNAME[quietI])
	}
}

func TestRunnerFigure4(t *testing.T) {
	r := shortRun(t)
	f4 := r.Figure4()
	if f4.Namespace["com"] < 0.78 || f4.Namespace["com"] > 0.87 {
		t.Errorf("com namespace share = %.4f, want ≈0.8247", f4.Namespace["com"])
	}
	if f4.DPSUse["com"] < f4.Namespace["com"] {
		t.Errorf("DPS use should skew toward com: %.4f vs %.4f", f4.DPSUse["com"], f4.Namespace["com"])
	}
	sum := f4.DPSUse["com"] + f4.DPSUse["net"] + f4.DPSUse["org"]
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("DPS shares sum = %v", sum)
	}
}

func TestRunnerFigure7And8(t *testing.T) {
	r := shortRun(t)
	f7 := r.Figure7()
	if len(f7) != 9 {
		t.Fatalf("f7 panels = %d", len(f7))
	}
	// Incapsula: the March peak contributes influx in an early bin.
	var inc Figure7Panel
	for _, p := range f7 {
		if p.Provider == "Incapsula" {
			inc = p
		}
	}
	influx := 0
	for _, b := range inc.Bins {
		influx += b.In
	}
	if influx == 0 {
		t.Error("no Incapsula influx despite Wix peak")
	}
	f8 := r.Figure8()
	if len(f8) != 9 {
		t.Fatalf("f8 panels = %d", len(f8))
	}
	// 160 days suffice for short-cycle on-demand customers (e.g.
	// Neustar/Level 3 with 4-day p80) to show ≥3 peaks.
	total := 0
	for _, p := range f8 {
		total += p.Stats.Domains
	}
	if total == 0 {
		t.Error("no on-demand domains found across providers")
	}
}

func TestRunnerAnomalyAttribution(t *testing.T) {
	r := shortRun(t)
	reports, err := r.Anomalies(1)
	if err != nil {
		t.Fatal(err)
	}
	var inc *AnomalyReport
	for i := range reports {
		if reports[i].Provider == "Incapsula" {
			inc = &reports[i]
		}
	}
	if inc == nil {
		t.Fatal("no Incapsula anomaly")
	}
	if len(inc.Attribution.Shared) == 0 || inc.Attribution.Shared[0].SLD != "wixdns.net" {
		t.Errorf("Incapsula anomaly not traced to Wix: %+v", inc.Attribution.Shared)
	}
	if inc.Attribution.Shared[0].Fraction < 0.9 {
		t.Errorf("weak attribution: %+v", inc.Attribution.Shared[0])
	}
}

func TestRunnerTable2Discovery(t *testing.T) {
	r := shortRun(t)
	// 2015-07-25 is quiet (no third-party episode in flight).
	res, err := r.Table2(simtime.FromDate(2015, 7, 25))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Discovered) != 9 {
		t.Fatalf("rows = %d", len(res.Discovered))
	}
	// At this coarse scale small reference populations (like Incapsula's
	// 0.02% NS-delegation share) fall below MinSupport; CloudFlare must
	// still be recovered exactly, and Incapsula's AS + CNAME identity
	// too. The scale-1000 run in EXPERIMENTS.md recovers all rows.
	for i, row := range res.Discovered {
		switch row.Name {
		case "CloudFlare":
			if !res.Exact[i] {
				t.Errorf("CloudFlare not exactly recovered: %+v vs %+v", row, res.Truth[i])
			}
		case "Incapsula":
			if len(row.ASNs) != 1 || row.ASNs[0] != 19551 || len(row.CNAMESLDs) != 1 || row.CNAMESLDs[0] != "incapdns.net" {
				t.Errorf("Incapsula AS/CNAME wrong: %+v", row)
			}
		}
	}
}

func TestRunnerRejectsDoubleRun(t *testing.T) {
	r := shortRun(t)
	if err := r.Run(context.Background()); err == nil {
		t.Error("second Run accepted")
	}
}

func TestRunnerKeepStore(t *testing.T) {
	r, err := New(Config{Scale: 200000, Workers: 2, Days: 3, KeepStore: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(r.Store.Days("com")) != 3 {
		t.Errorf("store days = %v", r.Store.Days("com"))
	}
	// Without KeepStore the partitions are dropped.
	r2, err := New(Config{Scale: 200000, Workers: 2, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(r2.Store.Days("com")) != 0 {
		t.Error("partitions not dropped in streaming mode")
	}
	// Stats survive the drop.
	if rows := r2.Table1(); len(rows) == 0 || rows[0].DataPoints == 0 {
		t.Error("stats lost")
	}
	_ = measure.SourceAlexa
}

func TestRunnerClassification(t *testing.T) {
	r := shortRun(t)
	rows := r.Classification()
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	totalAlways := 0
	for _, row := range rows {
		totalAlways += row.AlwaysOn
	}
	if totalAlways == 0 {
		t.Error("no always-on domains classified")
	}
}

// TestRunnerFullWindowTiny runs all 550 days at a very coarse scale,
// exercising the .nl and Alexa windows that the 160-day short run never
// reaches.
func TestRunnerFullWindowTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full window")
	}
	r, err := New(Config{Scale: 100_000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := r.Table1()
	if len(rows) != 5 {
		t.Fatalf("table 1 rows = %d, want 5 (com/net/org/nl/alexa)", len(rows))
	}
	for _, row := range rows {
		wantDays := 550
		if row.Source == "nl" || row.Source == "alexa" {
			wantDays = 184
		}
		if row.Days != wantDays {
			t.Errorf("%s days = %d, want %d", row.Source, row.Days, wantDays)
		}
	}
	f6 := r.Figure6()
	if len(f6.NL.Days) != 184 || len(f6.Alexa.Days) != 184 {
		t.Fatalf("fig 6 days: nl=%d alexa=%d", len(f6.NL.Days), len(f6.Alexa.Days))
	}
	// At 1:100000 the scaled .nl DPS population can round to zero; the
	// growth is then 0 by convention. Anything else must be sane.
	if g := f6.NL.AdoptionGrowth(); g != 0 && (g < 0.9 || g > 1.6) {
		t.Errorf("nl adoption growth = %.3f", g)
	}
	g5 := r.Figure5()
	if g := g5.ExpansionGrowth(); g < 1.05 || g > 1.13 {
		t.Errorf("expansion growth = %.3f, want ≈1.09", g)
	}
	if g := g5.AdoptionGrowth(); g < 1.0 || g > 1.6 {
		t.Errorf("adoption growth = %.3f (coarse scale tolerance)", g)
	}
}

// TestRunnerCancellationDropsPartialDay: a SIGTERM-style cancellation
// mid-run surfaces a wrapped context error after some days committed,
// and leaves no partial-day partitions in the store.
func TestRunnerCancellationDropsPartialDay(t *testing.T) {
	r, err := New(Config{Scale: 200000, Workers: 2, Days: 6, KeepStore: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	committed := 0
	r.Cfg.OnDayProgress = func(p DayProgress) {
		committed = p.Done
		if p.Done == 2 {
			cancel()
		}
	}
	err = r.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want wrapped context.Canceled", err)
	}
	if committed == 0 || committed >= 6 {
		t.Fatalf("committed %d days before cancel, want partial progress", committed)
	}
	// No partition survives past the last committed day.
	lastCommitted := r.Window().Start + simtime.Day(committed) - 1
	for _, src := range r.Store.Sources() {
		for _, day := range r.Store.Days(src) {
			if day > lastCommitted {
				t.Errorf("%s/%s: partial-day partition survived cancellation", src, day)
			}
		}
	}
}
