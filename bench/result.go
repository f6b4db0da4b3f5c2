package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// series is one end-to-end metric over a set's runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	// Spread is the interquartile distance as a share of the median.
	Spread float64 `json:"spread"`
}

func newSeries(unit string, vals []float64) series {
	s := sorted(vals)
	return series{Unit: unit, Values: vals, Median: median(s), Min: s[0], Max: s[len(s)-1], Spread: quartileSpread(s)}
}

// workloadResult is everything one set of runs learned about a workload.
type workloadResult struct {
	Runs      int                    `json:"runs"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]series      `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

type resultDoc struct {
	Header    header                    `json:"header"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// child runs one workload once in a fresh process (self re-exec), so GC
// pacing and the program's global metric registry start clean each time.
func child(name string, seed int64, seconds float64, trace int, outDir string) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return res, fmt.Errorf("%s seed %d: %w", name, seed, err)
		}
		return res, fmt.Errorf("%s seed %d: no result line: %w", name, seed, jerr)
	}
	return res, nil // an incorrect run still reports; the caller sees Correct
}

// runAll runs every workload reps times untraced (seeds seed, seed+1, …)
// and once traced, writes result.json and prints the tables.
func runAll(reps int, seed int64, seconds float64, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	doc := resultDoc{Header: newHeader(seed), Seconds: seconds, Workloads: make(map[string]workloadResult)}
	for _, wd := range workloadDefs {
		wr := workloadResult{Correct: true, EndToEnd: make(map[string]series)}
		vals := make(map[string][]float64)
		for i := 0; i < reps; i++ {
			res, err := child(wd.Name, seed+int64(i), seconds, 0, outDir)
			if err != nil {
				return err
			}
			wr.Runs++
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d done\n", wd.Name, i+1, reps)
		}
		for _, d := range endToEndDefs {
			wr.EndToEnd[d.Name] = newSeries(d.Unit, vals[d.Name])
		}
		res, err := child(wd.Name, seed, seconds, 1, outDir)
		if err != nil {
			return err
		}
		wr.Correct = wr.Correct && res.Correct
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.PerLayer = res.Metrics
		doc.Workloads[wd.Name] = wr
	}
	path := filepath.Join(outDir, "result.json")
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printResult(os.Stdout, doc)
	fmt.Printf("\nresult written to %s\n", path)
	for name, wr := range doc.Workloads {
		if !wr.Correct || wr.Failed > 0 {
			return fmt.Errorf("%s: %d of %d failed, correct=%v", name, wr.Failed, wr.Attempted, wr.Correct)
		}
	}
	return nil
}

func printResult(w io.Writer, doc resultDoc) {
	h := doc.Header
	fmt.Fprintf(w, "nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, doc.Seconds)
	for _, wd := range workloadDefs {
		wr, ok := doc.Workloads[wd.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n== %s: %d runs, %d attempted, %d failed, correct=%v\n", wd.Name, wr.Runs, wr.Attempted, wr.Failed, wr.Correct)
		fmt.Fprintf(w, "%-16s %12s %12s %12s %8s  %s\n", "end-to-end", "median", "min", "max", "spread", "unit")
		for _, d := range endToEndDefs {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(w, "%-16s %12.5g %12.5g %12.5g %7.1f%%  %s (n=%d)\n", d.Name, s.Median, s.Min, s.Max, 100*s.Spread, s.Unit, len(s.Values))
		}
		fmt.Fprintf(w, "%-40s %14s  %s\n", "per-layer (traced run)", "value", "unit")
		for _, d := range perLayerDefs {
			if v := wr.PerLayer[d.Name]; v.Value != 0 {
				fmt.Fprintf(w, "%-40s %14.6g  %s\n", d.Name, v.Value, v.Unit)
			}
		}
		printShares(w, wr.PerLayer)
	}
}

// printShares prints each layer's self time as a share of the traced
// pass — the ledger. The shares sum to 1 − unattributed when the pass is
// sequential; concurrent phases (serve_live) can sum past 1.
func printShares(w io.Writer, layer map[string]metricValue) {
	var total float64
	self := make(map[string]float64)
	for name, v := range layer {
		if l, ok := strings.CutSuffix(name, ".self_s"); ok && v.Value > 0 {
			self[l] = v.Value
			total += v.Value
		}
	}
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "ledger (self time / sum of layer self times):")
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] }) // largest share first
	for _, l := range names {
		fmt.Fprintf(w, " %s %.1f%%", l, 100*self[l]/total)
	}
	fmt.Fprintln(w)
}

func loadResult(path string) (resultDoc, error) {
	var doc resultDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	return doc, json.Unmarshal(data, &doc)
}

// worse is the relative change of b against a in the metric's bad
// direction: positive means b is worse.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	ch := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		return -ch
	}
	return ch
}

// verdict applies the comparison rule of the choosing-metrics guide: a
// change counts only beyond the committed bound, and where the spread of
// either side is wider than the bound the pairing is unresolved unless
// every run of one side beats every run of the other.
func verdict(d metricDef, a, b series) string {
	if math.Max(a.Spread, b.Spread) > d.Bound {
		// Orient both ranges so that larger is worse.
		span := func(s series) (lo, hi float64) {
			if d.Better == "higher" {
				return -s.Max, -s.Min
			}
			return s.Min, s.Max
		}
		aLo, aHi := span(a)
		bLo, bHi := span(b)
		switch {
		case bHi < aLo:
			return "better"
		case bLo > aHi:
			return "worse"
		}
		return "unresolved"
	}
	switch ch := worse(d, a.Median, b.Median); {
	case ch > d.Bound:
		return "worse"
	case ch < -d.Bound:
		return "better"
	}
	return "same"
}

func compareCmd(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare OLD.json NEW.json")
	}
	a, err := loadResult(args[0])
	if err != nil {
		return err
	}
	b, err := loadResult(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %8s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	regressed := 0
	for _, wd := range workloadDefs {
		wa, oka := a.Workloads[wd.Name]
		wb, okb := b.Workloads[wd.Name]
		if !oka || !okb {
			continue
		}
		for _, d := range endToEndDefs {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(d, sa, sb)
			if v == "worse" {
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-14s %12.5g %12.5g %+7.1f%% %6.0f%%  %s\n",
				wd.Name, d.Name, sa.Median, sb.Median, 100*worse(d, sa.Median, sb.Median), 100*d.Bound, v)
		}
		if wb.Failed > wa.Failed || !wb.Correct {
			regressed++
			fmt.Fprintf(w, "%-14s failed %d → %d, correct=%v  worse\n", wd.Name, wa.Failed, wb.Failed, wb.Correct)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d pairing(s) worse than the bound", regressed)
	}
	return nil
}

// noiseRow is one workload × metric of the measured noise floor.
type noiseRow struct {
	Unit    string  `json:"unit"`
	Median1 float64 `json:"median_set1"`
	Median2 float64 `json:"median_set2"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	// Spread is the wider of the two sets' interquartile spreads and
	// Drift how much worse the second set's median is than the first's,
	// both as shares of the median.
	Spread float64 `json:"spread"`
	Drift  float64 `json:"drift"`
	Bound  float64 `json:"bound"`
	Runs   int     `json:"runs_per_set"`
}

type noiseDoc struct {
	Header  header                         `json:"header"`
	Seconds float64                        `json:"seconds"`
	Rule    string                         `json:"rule"`
	Floor   map[string]map[string]noiseRow `json:"floor"`
}

func noiseCmd(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench noise SET1.json SET2.json")
	}
	a, err := loadResult(args[0])
	if err != nil {
		return err
	}
	b, err := loadResult(args[1])
	if err != nil {
		return err
	}
	doc := noiseDoc{
		Header: a.Header, Seconds: a.Seconds,
		Rule:  "spread = wider interquartile distance of the two sets / median; drift = how much worse set 2's median is than set 1's; a later delta smaller than bound is inside the band",
		Floor: make(map[string]map[string]noiseRow),
	}
	var bad []string
	for _, wd := range workloadDefs {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		rows := make(map[string]noiseRow)
		for _, d := range endToEndDefs {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			row := noiseRow{
				Unit: d.Unit, Median1: sa.Median, Median2: sb.Median,
				Min: math.Min(sa.Min, sb.Min), Max: math.Max(sa.Max, sb.Max),
				Spread: math.Max(sa.Spread, sb.Spread), Drift: worse(d, sa.Median, sb.Median),
				Bound: d.Bound, Runs: len(sa.Values),
			}
			rows[d.Name] = row
			if (row.Spread > d.Bound && d.Name != "setup_s") || row.Drift > d.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: spread %.3f drift %.3f bound %.3f", wd.Name, d.Name, row.Spread, row.Drift, d.Bound))
			}
		}
		doc.Floor[wd.Name] = rows
	}
	if err := printJSON(w, doc); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("two sets disagree beyond the bounds: %s", strings.Join(bad, "; "))
	}
	return nil
}
