// discovery runs the paper's §3.3 reference-discovery procedure: starting
// from nothing but AS-to-name data, one day of measurements, and active
// apex probes, it reconstructs each provider's Table 2 row — AS numbers,
// CNAME SLDs, NS SLDs — and compares against ground truth. It also shows
// why the filters matter, by printing the third-party SLDs (wixdns.net,
// sedoparking.com, ...) that raw co-occurrence would have swept in.
//
//	go run ./examples/discovery
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"

	"dpsadopt/internal/core"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/pfx2as"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

func main() {
	world, err := worldsim.New(worldsim.DefaultConfig(4000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("world:", world.Stats())

	// Measure one quiet day (no third-party anomaly in flight).
	day := simtime.FromDate(2015, 7, 25)
	st := store.New()
	pipeline := measure.New(world, st, measure.Config{Mode: measure.ModeDirect, Workers: 8})
	if err := pipeline.RunDay(context.Background(), day); err != nil {
		log.Fatal(err)
	}

	table := tableFor(world, day)
	probe := func(sld string) (netip.Addr, bool) { return world.ProbeApex(sld, day) }

	truth := core.MustGroundTruth()
	fmt.Printf("\ndiscovering references from AS-to-name seeds (%s):\n\n", day)
	names := make([]string, len(truth.Providers))
	for i := range truth.Providers {
		names[i] = truth.Providers[i].Name
	}
	// One aggregation of the day serves all nine providers.
	rows, err := core.DiscoverAll(st, worldsim.GTLDs(), day, world.Registry, names, table, probe,
		core.DiscoveryConfig{MinSupport: 1, MinASSupport: 1})
	if err != nil {
		log.Fatal(err)
	}
	exact := 0
	for i, got := range rows {
		want := truth.Providers[i]
		match := "EXACT  "
		if got.String() != want.String() {
			match = "PARTIAL"
		} else {
			exact++
		}
		fmt.Printf("[%s] %s\n", match, got)
	}
	fmt.Printf("\n%d/%d provider rows recovered exactly\n", exact, len(truth.Providers))

	// Show the counter-factual: the SLDs most frequent among
	// Incapsula-routed domains on a peak day would include Wix's.
	peak := simtime.FromDate(2015, 3, 5)
	if err := pipeline.RunDay(context.Background(), peak); err != nil {
		log.Fatal(err)
	}
	peakTable := tableFor(world, peak)
	got, err := core.Discover(st, worldsim.GTLDs(), peak, world.Registry, "Incapsula", peakTable,
		func(sld string) (netip.Addr, bool) { return world.ProbeApex(sld, peak) },
		core.DiscoveryConfig{MinSupport: 1, MinASSupport: 1, MinSpecificity: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrun instead on the Wix peak day (%s) with a lax specificity filter:\n  %s\n", peak, got)
	fmt.Println("  — third-party SLDs leak in exactly as §3.3's manual pruning anticipates")
}

func tableFor(world *worldsim.World, day simtime.Day) pfx2as.Table {
	table, err := pfx2as.FromSnapshot(world.RIBForDay(day).Snapshot())
	if err != nil {
		log.Fatal(err)
	}
	return table
}
