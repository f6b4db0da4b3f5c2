// Command dpsmeasure runs the active DNS measurement pipeline by itself —
// the paper's Figure 1 system — and reports what it collected, without
// the downstream analysis. It demonstrates both fidelity modes: the
// default in-process derivation and, with -mode wire, full resolution of
// every query through authoritative servers over the in-memory network.
//
// Progress is reported through the structured logger (one summary line
// per day with row/query counts and latency quantiles); -quiet
// suppresses it. With -metrics-addr the process serves live
// Prometheus-text /metrics (including the go_*/process_* runtime
// gauges), expvar /debug/vars, pprof profiles and — when tracing is on —
// /debug/traces for the duration of the run, and stays up after the run
// finishes until interrupted so the final counters can be scraped.
// -prof-mutex and -prof-block arm the runtime's contention profilers,
// which feed /debug/pprof/{mutex,block}.
//
// Tracing: -trace-out enables request-scoped tracing and names the output
// base; the run writes <base>.json (Chrome trace_event, loadable in
// about:tracing and Perfetto) and <base>.jsonl (one span per line).
// -trace-sample sets the per-domain sampling rate; -trace-slow logs every
// span at or above the given duration with its full path.
//
// SIGINT/SIGTERM cancel the run gracefully: the in-flight day stops
// between domains, partial traces and committed store partitions are
// flushed, the usual summary is printed, and the process exits 130.
//
// Fault injection: with -mode wire, -fault-scenario names a chaos
// scenario (see -help for the list) injected into every measured day,
// and -fault-seed pins the exact fault pattern — the same scenario and
// seed reproduce the same losses, byte for byte. Every wire day's network
// accounting (queries sent, lost, resolutions given up) is logged, and a
// day whose failure rate exceeds the threshold is committed as degraded,
// faults armed or not — the report pipeline's rule; the run ends with a
// per-day degraded ledger.
//
// Coordination: -coord-workers N > 0 replaces the classic day loop with
// the internal/coord plane — (source, day) partitions leased to N
// workers with crash-safe, exactly-once commits — and makes the
// coordination chaos scenarios (worker-crash, coord-restart, torn-write,
// ...) usable without -mode wire; -coord-dir persists the journal and
// spools so an interrupted run resumes where it stopped. cmd/dpscoord is
// the same plane as a standalone tool with ledger output.
//
// Usage:
//
//	dpsmeasure [-scale 100000] [-days 3] [-mode direct|wire] [-workers N]
//	           [-coord-workers 3] [-coord-dir coordrun]
//	           [-fault-scenario flaky-1pct] [-fault-seed 7] [-wire-timeout 100]
//	           [-metrics-addr :9090] [-prof-mutex 5] [-prof-block 0]
//	           [-quiet] [-log-json] [-v]
//	           [-trace-out traces] [-trace-sample 0.01] [-trace-slow 250ms]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dpsadopt/cmd/internal/cli"
	"dpsadopt/internal/coord"
	"dpsadopt/internal/experiment"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/trace"
)

func main() {
	var (
		scale       = flag.Int("scale", 100_000, "world scale divisor")
		days        = flag.Int("days", 3, "days to measure")
		mode        = flag.String("mode", "direct", "direct or wire")
		workers     = flag.Int("workers", 4, "measurement workers")
		verbose     = flag.Bool("v", false, "print sample rows")
		out         = flag.String("out", "", "write the dataset to this .dpsa file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/traces on this address")
		traceOut    = flag.String("trace-out", "", "enable tracing; write <base>.json (Chrome trace_event) and <base>.jsonl")
		traceSample = flag.Float64("trace-sample", 0.01, "per-domain trace sampling rate in [0,1]")
		traceSlow   = flag.Duration("trace-slow", 0, "log spans at or above this duration with their full path (0 = off)")
		wireTimeout = flag.Int("wire-timeout", 0, "wire-mode resolver timeout in ms (0 = dnsclient default; lower it under chaos so losses cost ms, not s)")

		coordWorkers = flag.Int("coord-workers", 0, "run the days through the coordination plane with this many leased workers (0 = classic sequential day loop)")
		coordDir     = flag.String("coord-dir", "", "coordination directory for journal + spools (default: a temp dir); rerun with the same dir to resume")
	)
	flags := cli.Parse("dpsmeasure", cli.Logging|cli.Profiling|cli.Faults)
	logger := obs.Logger()

	cfg := measure.Config{Workers: *workers, Timeout: *wireTimeout}
	switch *mode {
	case "direct":
		cfg.Mode = measure.ModeDirect
	case "wire":
		cfg.Mode = measure.ModeWire
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	// Network/server faults need wire days (only they have datagrams to
	// lose); coordination-plane faults need the coordination plane. A
	// scenario may carry either or both.
	if (flags.Fault.Active() || flags.Fault.ServerActive()) && cfg.Mode != measure.ModeWire {
		log.Fatalf("-fault-scenario %s requires -mode wire: only wire days have datagrams to lose", flags.FaultScenario)
	}
	if flags.Fault.CoordActive() && *coordWorkers <= 0 {
		log.Fatalf("-fault-scenario %s injects coordination-plane faults: set -coord-workers (or use dpscoord)", flags.FaultScenario)
	}
	if flags.FaultScenario != "" {
		experiment.ArmFaults(&cfg, flags.Fault, experiment.DaySeeds(flags.FaultSeed), nil)
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

	reg := obs.Default()
	defer cli.ServeMetrics(*metricsAddr)()

	// SIGINT/SIGTERM cancel the run: the in-flight day stops between
	// domains, traces flush, and the summary below still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := cli.World(*scale)

	s := store.New()
	p := measure.New(w, s, cfg)
	start := time.Now()
	prev := reg.Snapshot()
	interrupted := false
	var ledger []experiment.DayAccounting
	if *coordWorkers > 0 {
		c, err := cli.Coordinate(ctx, w, *days, cfg, &coord.Config{Dir: *coordDir, Workers: *coordWorkers}, flags)
		interrupted = err != nil && ctx.Err() != nil
		if err != nil && !interrupted {
			log.Fatal(err)
		}
		assembled, _ := cli.Assemble(c)
		s.Absorb(assembled)
	}
	for d := 0; *coordWorkers == 0 && d < *days; d++ {
		day := w.Cfg.Window.Start + simtime.Day(d)
		t0 := time.Now()
		dctx, sp := tracer.StartRoot(ctx, "experiment.day",
			trace.Str("day", day.String()),
			trace.Int("index", int64(d+1)), trace.Int("total", int64(*days)))
		err := p.RunDay(dctx, day)
		sp.End()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted = true
				logger.Warn("run interrupted; flushing partial results", "day", day.String())
				break
			}
			log.Fatal(err)
		}
		snap := reg.Snapshot()
		lat := snap.Histogram("dns_client_query_seconds")
		attrs := []any{
			"day", day.String(),
			"domains", snap.Counter("measure_domains_total") - prev.Counter("measure_domains_total"),
			"rows", snap.Counter("store_rows_total") - prev.Counter("store_rows_total"),
			"queries", snap.Counter("dns_client_queries_total") - prev.Counter("dns_client_queries_total"),
			"p50_ms", fmt.Sprintf("%.3f", lat.P50*1000),
			"p99_ms", fmt.Sprintf("%.3f", lat.P99*1000),
			"errors", snap.Counter("dns_client_errors_total") - prev.Counter("dns_client_errors_total"),
			"elapsed", time.Since(t0).Round(time.Millisecond).String(),
		}
		if cfg.Mode == measure.ModeWire {
			a := experiment.AccountDay(day, p.LastNetStats())
			ledger = append(ledger, a)
			attrs = append(attrs,
				"lost", a.Lost,
				"gave_up", a.GaveUp,
				"failure_rate", fmt.Sprintf("%.4f", a.FailureRate),
				"degraded", a.Degraded,
			)
		}
		logger.Info("day complete", attrs...)
		prev = snap
		if ctx.Err() != nil {
			interrupted = true
			break
		}
	}
	if err := tracer.Close(); err != nil {
		logger.Warn("trace flush failed", "err", err)
	} else if tracer != nil {
		logger.Info("traces written", "out", *traceOut, "recent", tracer.Ring().Len())
	}
	logger.Info("run complete",
		"elapsed", time.Since(start).Round(time.Millisecond).String(),
		"wire_queries", p.QueriesSent(),
		"interrupted", interrupted,
	)

	// The per-day network ledger always flushes — on interrupts too, so
	// an aborted run still shows which committed days were degraded.
	if len(ledger) > 0 && !flags.Quiet {
		scenario := flags.FaultScenario
		if scenario == "" {
			scenario = "none"
		}
		fmt.Printf("\ndegraded-day ledger (scenario %s, seed %d):\n", scenario, flags.FaultSeed)
		fmt.Printf("%-12s %10s %8s %8s %8s %8s\n", "day", "queries", "lost", "gaveup", "rate", "status")
		for _, a := range ledger {
			status := "ok"
			if a.Degraded {
				status = "DEGRADED"
			}
			fmt.Printf("%-12s %10d %8d %8d %8.4f %8s\n", a.Day, a.Queries, a.Lost, a.GaveUp, a.FailureRate, status)
		}
	}

	if !flags.Quiet {
		fmt.Printf("\n%-8s %6s %10s %12s %12s\n", "source", "days", "#SLDs", "#DPs", "size")
		for _, src := range s.Sources() {
			st := s.SourceStats(src)
			fmt.Printf("%-8s %6d %10d %12d %11dB\n", src, st.Days, st.UniqueSLDs, st.DataPoints, st.CompressedBytes)
		}
	}

	if *out != "" {
		if err := s.Save(*out); err != nil {
			log.Fatal(err)
		}
		logger.Info("dataset written", "path", *out)
	}

	if *verbose && !flags.Quiet {
		day := w.Cfg.Window.Start
		fmt.Printf("\nsample rows (com, %s):\n", day)
		n := 0
		s.ForEachRow("com", day, func(r store.Row) {
			if n >= 12 {
				return
			}
			n++
			if r.Str != "" {
				fmt.Printf("  %-20s %-10s %s\n", r.Domain, r.Kind, r.Str)
			} else {
				fmt.Printf("  %-20s %-10s %-15s AS%v\n", r.Domain, r.Kind, r.Addr, r.ASNs)
			}
		})
	}

	if interrupted {
		os.Exit(130) // 128 + SIGINT, the conventional interrupted exit
	}

	if *metricsAddr != "" {
		logger.Info("run finished; still serving metrics, Ctrl-C to exit")
		<-ctx.Done()
	}
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
