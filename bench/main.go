// Command bench is the repository's one end-to-end benchmark. It runs
// four workloads against the program's own entry points, checks their
// outputs against digests, and reports the end-to-end metrics (tracing
// off) or the per-layer metrics (one traced pass plus stand-alone
// replays). README.md in this directory documents the workloads, the
// metrics and how they interact.
//
// Usage:
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run, result as the last line (JSON); raw samples
//	                                                         or spans in bench/out/{samples,trace}-NAME.json[l]
//	bench [--reps R]                                         every workload: R untraced runs + 1 traced, bench/out/result.json
//	bench compare OLD.json NEW.json                          per workload × metric: better / worse / unresolved
//	bench noise SET1.json SET2.json                          the noise floor of two result sets (noise.json)
//	bench catalog                                            BENCHMARK.json as the catalogue defines it
//	bench golden                                             golden.json recomputed from the program as it is now
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"dpsadopt/internal/core"
	"dpsadopt/internal/obs"
)

// workload is one of the four benchmark workloads.
type workload interface {
	// setup builds the workload's inputs from the env's seed; it is run
	// several times per invocation and the median time is setup_s.
	setup(e *env) error
	// pass runs the timed part once with tracing off.
	pass(e *env, t *tally) (e2e, error)
	// traced runs one untraced and one traced pass plus the stand-alone
	// replays, and returns the per-layer metrics it could measure.
	traced(e *env, rec *Recorder, t *tally) (map[string]float64, error)
}

// sizes holds every workload's input size. The defaults are what
// BENCHMARK.json's numbers are measured at; tests shrink them.
type sizes struct {
	ReproDirect reproSize
	ReproWire   reproSize
	Scan        fixtureSize
	Serve       serveSize
}

func defaultSizes() sizes {
	return sizes{
		ReproDirect: reproSize{Scale: 16000, Days: 40, WarmScale: 40000, WarmDays: 10},
		ReproWire:   reproSize{Scale: 48000, Days: 6, Wire: true},
		Scan:        fixtureSize{Scale: 12000, Days: 40},
		Serve:       serveSize{Fixture: fixtureSize{Scale: 20000, Days: 50, BootDays: 30}, ROQueries: 100000},
	}
}

// smokeSizes are the 1:100000 x 2-day inputs the harness tests run.
func smokeSizes() sizes {
	return sizes{
		ReproDirect: reproSize{Scale: 100000, Days: 2, WarmScale: 100000, WarmDays: 1},
		ReproWire:   reproSize{Scale: 100000, Days: 2, Wire: true},
		Scan:        fixtureSize{Scale: 100000, Days: 2},
		Serve:       serveSize{Fixture: fixtureSize{Scale: 100000, Days: 2, BootDays: 1}, ROQueries: roChunk},
	}
}

func newWorkload(name string, sz sizes, golden map[string]string) (workload, error) {
	refs, err := core.GroundTruth()
	if err != nil {
		return nil, err
	}
	switch name {
	case "repro_direct":
		return &reproWorkload{name: name, size: sz.ReproDirect, golden: golden}, nil
	case "repro_wire":
		return &reproWorkload{name: name, size: sz.ReproWire, golden: golden}, nil
	case "dataset_scan":
		return &scanWorkload{size: sz.Scan, refs: refs}, nil
	case "serve_live":
		return &serveWorkload{size: sz.Serve, refs: refs}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a single run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const setupReps = 3

// runOne is one invocation: set-up (several times), then either untraced
// passes for the run length or the traced pass.
func runOne(w workload, name string, e *env, trace bool, outDir string, log io.Writer) (runResult, error) {
	var sm samples
	if !trace {
		sm.SetupYard = yardstick(sm.SetupYard)
	}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		sm.Setup = append(sm.Setup, time.Since(t0).Seconds())
		if !trace {
			sm.SetupYard = yardstick(sm.SetupYard)
		}
	}
	t := &tally{}
	res := runResult{Metrics: make(map[string]metricValue)}
	if !trace {
		// The first pass over a fresh set-up pays for a cold page cache and
		// the first write of every scratch file; it is checked like any
		// other but not timed.
		if _, err := w.pass(e, t); err != nil {
			return runResult{}, err
		}
		passes := 0
		start := time.Now()
		for last := 0.0; passes == 0 || time.Since(start).Seconds()+last <= e.seconds; passes++ {
			// The yardstick leaves a collected heap, so one pass's garbage is
			// not collected on the next one's clock.
			sm.Yard = yardstick(sm.Yard)
			t0 := time.Now()
			p, err := w.pass(e, t)
			if err != nil {
				return runResult{}, err
			}
			last = time.Since(t0).Seconds()
			sm.add(p)
		}
		sm.Yard = yardstick(sm.Yard)
		values := sm.metrics()
		for _, d := range endToEndDefs {
			res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
		fmt.Fprintf(log, "%s: %d passes in %.1fs; samples: %d wall_s, %d write_s, %d read_s; machine speed %.2f of nominal (set-up %.2f)\n",
			name, passes, time.Since(start).Seconds(), len(sm.Wall), len(sm.Write), len(sm.Read),
			speed(sm.Yard), speed(sm.SetupYard))
		// Every reading behind those numbers, for whoever doubts them.
		data, err := json.Marshal(sm)
		if err != nil {
			return runResult{}, err
		}
		if err := os.WriteFile(filepath.Join(outDir, "samples-"+name+".json"), append(data, '\n'), 0o644); err != nil {
			return runResult{}, err
		}
	} else {
		rec := newRecorder(fmt.Sprintf("%s-seed%d", name, e.seed))
		values, err := w.traced(e, rec, t)
		if err != nil {
			return runResult{}, err
		}
		known := defByName(perLayerDefs)
		for k := range values {
			if _, ok := known[k]; !ok {
				return runResult{}, fmt.Errorf("metric %q is not in the catalogue", k)
			}
		}
		for _, d := range perLayerDefs {
			res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
		path := filepath.Join(outDir, "trace-"+name+".jsonl")
		if err := writeJSONL(path, rec.snapshot()); err != nil {
			return runResult{}, err
		}
		fmt.Fprintf(log, "%s: trace written to %s\n", name, path)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = len(t.mismatches) == 0
	for _, m := range t.mismatches {
		fmt.Fprintf(log, "MISMATCH %s\n", m)
	}
	return res, nil
}

// samples is every reading one untraced run took, in order: the set-ups,
// the timed passes' samples, and the yardstick readings taken around each.
type samples struct {
	Setup       []float64 `json:"setup_s"`
	SetupYard   []float64 `json:"setup_yardstick_s"`
	Wall        []float64 `json:"wall_s"`
	Write       []float64 `json:"write_s"`
	Read        []float64 `json:"read_s"`
	Yard        []float64 `json:"yardstick_s"`
	AllocMB     []float64 `json:"alloc_mb"`
	BytesPerRow []float64 `json:"bytes_per_row"`
}

func (sm *samples) add(p e2e) {
	sm.Wall = append(sm.Wall, p.wall...)
	sm.Write = append(sm.Write, p.write...)
	sm.Read = append(sm.Read, p.read...)
	sm.AllocMB = append(sm.AllocMB, p.allocMB)
	sm.BytesPerRow = append(sm.BytesPerRow, p.bytesPerRow)
}

// metrics reduces a run's samples to the end-to-end metrics. A timing is
// the lower quartile of its samples, divided by the machine's speed over
// the same stretch (README.md, "Noise floor", says why); set-up is the
// median of its few repetitions, corrected the same way.
func (sm *samples) metrics() map[string]float64 {
	sp := speed(sm.Yard)
	return map[string]float64{
		"setup_s":       median(sm.Setup) * speed(sm.SetupYard),
		"wall_s":        lowerQuartile(sm.Wall) * sp,
		"write_s":       lowerQuartile(sm.Write) * sp,
		"read_s":        lowerQuartile(sm.Read) * sp,
		"alloc_mb":      median(sm.AllocMB),
		"bytes_per_row": median(sm.BytesPerRow),
	}
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// goldenSizes are the reproductions golden.json holds a digest for: the
// two repro workloads' sizes and the tests' smoke size.
func goldenSizes() []reproSize {
	sz := defaultSizes()
	sm := smokeSizes()
	return []reproSize{sz.ReproDirect, sz.ReproWire, sm.ReproDirect, sm.ReproWire}
}

// goldenCmd recomputes golden.json. Run it only when a change to the
// program is meant to change the rendered report.
func goldenCmd(w io.Writer) error {
	obs.SetLogger(obs.NewLogger(os.Stderr, slog.LevelError, false))
	e, err := newEnv(filepath.Join(benchDir, "out"), 0, 0)
	if err != nil {
		return err
	}
	defer e.cleanup()
	golden := make(map[string]string)
	for _, size := range goldenSizes() {
		dir, err := e.mkdir("golden")
		if err != nil {
			return err
		}
		p, err := runRepro(size, dir, nil, nil)
		if err != nil {
			return err
		}
		golden[size.goldenKey()] = p.digest.full
	}
	return printJSON(w, golden)
}

func loadGolden(dir string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "golden.json"))
	if err != nil {
		return nil, err
	}
	var g map[string]string
	return g, json.Unmarshal(data, &g)
}

// benchDir is where the benchmark's own files (golden.json) live,
// relative to the checkout root the command is run from.
const benchDir = "bench"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("outputs did not match their digests")

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:], os.Stdout)
		case "noise":
			return noiseCmd(args[1:], os.Stdout)
		case "catalog":
			return printJSON(os.Stdout, catalogDoc())
		case "golden":
			return goldenCmd(os.Stdout)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (empty: all of them)")
	seed := fs.Int64("seed", 1, "seed for the generated inputs and the request schedule")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	reps := fs.Int("reps", 3, "untraced runs per workload when running all workloads")
	outDir := fs.String("out", filepath.Join(benchDir, "out"), "directory for scratch files, traces and result.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return runAll(*reps, *seed, *seconds, *outDir)
	}

	// The program's packages log progress at Info; a benchmark run wants
	// only problems.
	obs.SetLogger(obs.NewLogger(os.Stderr, slog.LevelError, false))
	golden, err := loadGolden(benchDir)
	if err != nil {
		return err
	}
	w, err := newWorkload(*name, defaultSizes(), golden)
	if err != nil {
		return err
	}
	e, err := newEnv(*outDir, *seed, *seconds)
	if err != nil {
		return err
	}
	defer e.cleanup()
	res, err := runOne(w, *name, e, *trace == 1, *outDir, os.Stderr)
	if err != nil {
		return err
	}
	hdr := newHeader(*seed)
	fmt.Printf("# %s seed=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n", *name, hdr.Seed, hdr.NProc, hdr.GOMAXPROCS, hdr.GoVersion, hdr.Commit)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}
