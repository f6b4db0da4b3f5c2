// Package cli is the start-up glue two or more dps* commands share: the
// fatal-error prefix, the logging, profiling and fault flags, the metrics
// endpoint and the world build.
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
	"dpsadopt/internal/obs"
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
