// Command dpscoord runs the measurement pipeline through the
// fault-tolerant coordination plane — the one command that does; dpsreport
// runs every other measurement. A coordinator owns a durable work
// ledger of (source, day) partitions and leases them to N workers, each
// measuring one partition at a time into a checksummed spool file.
// Leases are fenced and expire on missed heartbeats, commits are
// idempotent and fsync-journaled, so every partition lands in the final
// dataset exactly once even under the coordination chaos scenarios
// (worker-crash, worker-stall, dup-commit, coord-restart, torn-write,
// coord-havoc; see -fault-scenario).
//
// A chaos-injected coordinator crash is survived in-process: the driver
// loop rebuilds the coordinator over the same directory and the journal
// replay requeues abandoned leases and skips committed partitions.
// After the run the committed spools are assembled into one dataset;
// spools torn at rest are caught by the store's CRC layer, moved into
// quarantine/, and reported as degraded instead of corrupting the
// output.
//
// SIGINT/SIGTERM cancel the run between partitions: the committed-so-far
// ledger is journaled and printed, and the process exits 130. A rerun
// over the same -dir resumes where the run stopped.
//
// Usage:
//
//	dpscoord [-scale 100000] [-days 3] [-workers 3] [-measure-workers 1]
//	         [-dir coordrun] [-out data.dpsa] [-ledger-out ledger.json]
//	         [-fault-scenario worker-crash] [-fault-seed 42]
//	         [-lease-ttl 1s] [-max-attempts 6] [-quiet] [-log-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dpsadopt/cmd/internal/cli"
	"dpsadopt/internal/chaos"
	"dpsadopt/internal/coord"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

func main() {
	var (
		scale          = flag.Int("scale", 100_000, "world scale divisor")
		days           = flag.Int("days", 3, "days to measure")
		workers        = flag.Int("workers", 3, "coordination workers (leased partitions in flight)")
		measureWorkers = flag.Int("measure-workers", 1, "measurement workers inside each partition")
		dir            = flag.String("dir", "", "coordination directory for journal + spools (default: a temp dir)")
		out            = flag.String("out", "", "write the assembled dataset to this .dpsa file")
		ledgerOut      = flag.String("ledger-out", "", "write the final partition ledger to this JSON file")
		leaseTTL       = flag.Duration("lease-ttl", time.Second, "lease TTL without a heartbeat")
		maxAttempts    = flag.Int("max-attempts", 6, "leases a partition may burn before failing permanently")
	)
	flags := cli.Parse("dpscoord", cli.Logging|cli.Faults)
	logger := obs.Logger()
	if flags.FaultScenario != "" && !flags.Fault.CoordActive() {
		log.Fatalf("scenario %q has no coordination-plane faults; dpscoord injects coordination chaos only (use dpsreport -mode wire for network/server faults)", flags.FaultScenario)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	world := cli.World(*scale)
	ccfg := coord.Config{Dir: *dir, Workers: *workers, LeaseTTL: *leaseTTL, MaxAttempts: *maxAttempts}
	c, err := coordinate(ctx, world, *days, *measureWorkers, &ccfg, flags)
	stats := c.Stats()

	ledger := c.Ledger()
	if *ledgerOut != "" {
		data, merr := json.MarshalIndent(ledger, "", "  ")
		if merr != nil {
			log.Fatal(merr)
		}
		if werr := os.WriteFile(*ledgerOut, append(data, '\n'), 0o644); werr != nil {
			log.Fatal(werr)
		}
		logger.Info("ledger written", "path", *ledgerOut)
	}

	if err != nil && ctx.Err() != nil {
		// The committed-so-far ledger is durable in the journal; print
		// it so the operator sees where the run stopped.
		printLedger(ledger)
		fmt.Printf("interrupted: %d/%d partitions committed; rerun with -dir %s to resume\n",
			stats.Committed, stats.Partitions, ccfg.Dir)
		os.Exit(130)
	}
	if err != nil {
		printLedger(ledger)
		log.Fatal(err)
	}

	if stats.Committed == stats.Partitions {
		fmt.Printf("ledger complete: %d (source, day) partitions committed exactly once\n", stats.Committed)
	}

	assembled, damaged := assemble(c)
	if !flags.Quiet {
		printLedger(ledger)
		if len(damaged) > 0 {
			fmt.Printf("\ndegraded partitions (torn at rest, quarantined under %s):\n", filepath.Dir(damaged[0].QuarantinePath))
			for _, d := range damaged {
				fmt.Printf("  %-20s %s\n", d.Partition.String(), d.Err)
			}
		}
	}

	rows := int64(0)
	for _, src := range assembled.Sources() {
		rows += assembled.SourceStats(src).DataPoints
	}
	fmt.Printf("dataset verified: %d partitions assembled, %d rows, %d quarantined\n",
		stats.Committed-len(damaged), rows, len(damaged))

	if *out != "" {
		if err := assembled.Save(*out); err != nil {
			log.Fatal(err)
		}
		if err := store.Verify(*out); err != nil {
			log.Fatalf("saved dataset failed verification: %v", err)
		}
		logger.Info("dataset written", "path", *out)
	}
}

// coordinate measures the first days days of w through the coordination
// plane under f's coordination faults: each (source, day) partition with
// domains to measure is leased to one of ccfg's workers, which measures
// it in direct mode with measureWorkers workers into its spool. An empty
// ccfg.Dir becomes a fresh temp dir. coordinate returns the coordinator
// and the error that ended its run; it is fatal only when no coordinator
// can be built.
func coordinate(ctx context.Context, w *worldsim.World, days, measureWorkers int, ccfg *coord.Config, f *cli.Flags) (*coord.Coordinator, error) {
	start := time.Now()
	if ccfg.Dir == "" {
		dir, err := os.MkdirTemp("", "dpscoord-*")
		if err != nil {
			log.Fatal(err)
		}
		ccfg.Dir = dir
	}
	mcfg := measure.Config{Mode: measure.ModeDirect, Workers: measureWorkers}
	probe := measure.New(w, store.New(), mcfg)
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

// assemble folds c's committed spools into one store, warning of each
// spool found torn at rest: it is quarantined and its day degraded.
func assemble(c *coord.Coordinator) (*store.Store, []coord.DamagedPartition) {
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

func printLedger(ledger []coord.PartitionStatus) {
	fmt.Printf("\n%-8s %-12s %-10s %9s  %s\n", "source", "day", "state", "attempts", "note")
	for _, row := range ledger {
		note := row.Err
		if row.State == coord.StateCommitted {
			note = ""
		}
		fmt.Printf("%-8s %-12s %-10s %9d  %s\n", row.Source, row.Day, row.State, row.Attempts, note)
	}
}
