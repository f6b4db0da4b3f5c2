// Package cli is the start-up glue two or more dps* commands share: the
// fatal-error prefix, the logging, profiling and fault flags, the metrics
// endpoint, the world build and the coordinated run.
package cli

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"time"

	"dpsadopt/internal/chaos"
	"dpsadopt/internal/coord"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// Flag groups that more than one command takes; Parse registers those
// asked for.
const (
	Logging   = 1 << iota // -quiet, -log-json
	Profiling             // -prof-mutex, -prof-block
	Faults                // -fault-scenario, -fault-seed
)

// Flags holds what the shared flags parsed to.
type Flags struct {
	Quiet         bool
	FaultScenario string
	FaultSeed     int64
	// Fault is FaultScenario's configuration, zero when none is named.
	Fault chaos.Config
}

// Parse registers the shared flag groups asked for, parses the command
// line, names the command in log.Fatal's messages ("name: err", exit 1)
// and applies the groups: logging, the runtime's contention profilers
// and the fault scenario.
func Parse(name string, groups int) *Flags {
	var (
		f                    Flags
		logJSON              bool
		profMutex, profBlock int
	)
	if groups&Logging != 0 {
		flag.BoolVar(&f.Quiet, "quiet", false, "suppress progress logging (warnings still shown)")
		flag.BoolVar(&logJSON, "log-json", false, "emit structured logs as JSON")
	}
	if groups&Profiling != 0 {
		flag.IntVar(&profMutex, "prof-mutex", 0, "mutex profiling fraction (runtime.SetMutexProfileFraction; 0 = off); served at /debug/pprof/mutex")
		flag.IntVar(&profBlock, "prof-block", 0, "block profiling rate in ns (runtime.SetBlockProfileRate; 0 = off); served at /debug/pprof/block")
	}
	if groups&Faults != 0 {
		flag.StringVar(&f.FaultScenario, "fault-scenario", "",
			"chaos scenario ("+strings.Join(chaos.ScenarioNames(), ", ")+"); empty = fault-free")
		flag.Int64Var(&f.FaultSeed, "fault-seed", 0, "seed pinning the fault pattern; same scenario+seed = same faults")
	}
	flag.Parse()
	log.SetPrefix(name + ": ")
	log.SetFlags(0)
	if logJSON {
		obs.SetLogger(obs.NewLogger(os.Stderr, slog.LevelInfo, true))
	}
	if f.Quiet {
		obs.SetQuiet()
	}
	runtime.SetMutexProfileFraction(profMutex)
	runtime.SetBlockProfileRate(profBlock)
	if f.FaultScenario != "" {
		fc, err := chaos.Scenario(f.FaultScenario)
		if err != nil {
			log.Fatal(err)
		}
		f.Fault = fc
		obs.Logger().Info("fault injection armed", "scenario", f.FaultScenario, "seed", f.FaultSeed)
	}
	return &f
}

// ServeMetrics serves the default registry — /metrics with the go_* and
// process_* runtime gauges, /debug/vars, /debug/pprof and every
// obs.Handle route — on addr (nothing when addr is empty) and returns
// the drain to defer: a scrape racing the exit still collects the final
// counters.
func ServeMetrics(addr string) (drain func()) {
	if addr == "" {
		return func() {}
	}
	rc := obs.StartRuntimeCollector(obs.Default(), 0)
	srv, err := obs.Serve(addr, obs.Default())
	if err != nil {
		log.Fatal(err)
	}
	obs.Logger().Info("metrics listening", "addr", srv.Addr)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
		rc.Close()
	}
}

// World builds the synthetic world at scale and logs its size.
func World(scale int) *worldsim.World {
	w, err := worldsim.New(worldsim.DefaultConfig(scale))
	if err != nil {
		log.Fatal(err)
	}
	obs.Logger().Info("world built", "stats", w.Stats())
	return w
}

// Coordinate measures the first days days of w through the coordination
// plane under f's coordination faults: each (source, day) partition with
// domains to measure is leased to one of ccfg's workers, which measures
// it with mcfg into its spool. An empty ccfg.Dir becomes a fresh temp
// dir. Coordinate returns the coordinator and the error that ended its
// run; it is fatal only when no coordinator can be built.
func Coordinate(ctx context.Context, w *worldsim.World, days int, mcfg measure.Config, ccfg *coord.Config, f *Flags) (*coord.Coordinator, error) {
	start := time.Now()
	if ccfg.Dir == "" {
		dir, err := os.MkdirTemp("", "dpscoord-*")
		if err != nil {
			log.Fatal(err)
		}
		ccfg.Dir = dir
	}
	probe := measure.New(w, store.New(), measure.Config{Mode: measure.ModeDirect, Workers: 1})
	var parts []coord.Partition
	for d := 0; d < days; d++ {
		day := w.Cfg.Window.Start + simtime.Day(d)
		for _, src := range probe.DaySources(day) {
			parts = append(parts, coord.Partition{Source: src, Day: day})
		}
	}
	if len(parts) == 0 {
		log.Fatalf("no (source, day) partitions in the first %d days", days)
	}
	ccfg.Faults = chaos.NewCoordFaults(f.Fault, uint64(f.FaultSeed))
	ccfg.Work = func(ctx context.Context, p coord.Partition, _ int) (*store.Store, error) {
		s := store.New()
		if err := measure.New(w, s, mcfg).RunPartition(ctx, p.Source, p.Day); err != nil {
			return nil, err
		}
		return s, nil
	}
	obs.Logger().Info("coordination plane armed", "workers", ccfg.Workers, "partitions", len(parts), "dir", ccfg.Dir)
	c, err := coord.Drive(ctx, *ccfg, parts, func(restarts int) error {
		obs.Logger().Warn("coordinator crashed (chaos); replaying journal", "restarts", restarts)
		return nil
	})
	if c == nil {
		log.Fatal(err)
	}
	st := c.Stats()
	obs.Logger().Info("coordination run finished", "elapsed", time.Since(start).Round(time.Millisecond).String(),
		"partitions", st.Partitions, "committed", st.Committed, "failed", st.Failed)
	return c, err
}

// Assemble folds c's committed spools into one store, warning of each
// spool found torn at rest: it is quarantined and its day degraded.
func Assemble(c *coord.Coordinator) (*store.Store, []coord.DamagedPartition) {
	s, damaged, err := c.Assemble()
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range damaged {
		obs.Logger().Warn("spool torn at rest; partition quarantined and day degraded",
			"partition", d.Partition.String(), "quarantine", d.QuarantinePath, "err", d.Err)
	}
	return s, damaged
}
