// ondemand follows a single on-demand DPS customer through its attack
// episodes (§3.4): the domain's address flips between its own hosting and
// a DPS-announced address, and the analysis recovers the diversion
// intervals, classifies the use pattern, and summarises the provider's
// peak-duration distribution (Fig 8).
//
//	go run ./examples/ondemand
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"dpsadopt/internal/analysis"
	"dpsadopt/internal/core"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

func main() {
	world, err := worldsim.New(worldsim.DefaultConfig(150_000))
	if err != nil {
		log.Fatal(err)
	}

	// Find an on-demand customer with early peaks, so a short measurement
	// window captures at least three.
	var target *worldsim.Domain
	for _, d := range world.Domains {
		if c := d.Cust; c != nil && c.OnDemand && len(c.Peaks) >= 3 &&
			c.Peaks[2].End < world.Cfg.Window.Start+180 {
			target = d
			break
		}
	}
	if target == nil {
		log.Fatal("no suitable on-demand customer")
	}
	provider := target.Cust.Provider
	refs := core.MustGroundTruth()
	fmt.Printf("%s is an on-demand %s customer (%s profile)\n\n",
		target.Name, refs.Providers[provider].Name, target.Cust.Profile)

	// Measure the first 180 days.
	st := store.New()
	pipeline := measure.New(world, st, measure.Config{Mode: measure.ModeDirect, Workers: 4})
	window := simtime.Range{Start: world.Cfg.Window.Start, End: world.Cfg.Window.Start + 180}
	for day := window.Start; day < window.End; day++ {
		if err := pipeline.RunDay(context.Background(), day); err != nil {
			log.Fatal(err)
		}
	}

	// Show the raw daily flips around the first peak.
	fmt.Println("daily state around the first episode:")
	first := target.Cust.Peaks[0]
	for day := first.Start - 2; day < first.End+2; day++ {
		s := world.StateFor(target, day)
		mark := "  "
		if target.Cust.ActiveOn(day) {
			mark = "=>"
		}
		fmt.Printf("  %s %s apex %v\n", mark, day, s.ApexA)
	}

	// Recover intervals and classification from measurements alone.
	agg := analysis.NewAggregator(refs, st, worldsim.GTLDs())
	if err := agg.Run(worldsim.GTLDs()); err != nil {
		log.Fatal(err)
	}
	ivs := agg.Intervals(provider, target.Name)
	fmt.Printf("\nrecovered diversion intervals (%d):\n", len(ivs))
	for _, iv := range ivs {
		fmt.Printf("  %s (%d days)\n", iv, iv.Len())
	}
	fmt.Printf("classification: %s\n", agg.Classify(provider, target.Name, window))

	// Fig 8 for this provider, over the measured window.
	stats := agg.OnDemandPeaks(provider, 3)
	fmt.Printf("\n%s on-demand set: %d domains, %d peaks, p80 = %d days\n",
		refs.Providers[provider].Name, stats.Domains, len(stats.Durations), stats.P(0.8))
	days, frac := stats.CDF()
	for i := range days {
		fmt.Printf("  P(d <= %3d) = %.2f |%s\n", days[i], frac[i], strings.Repeat("#", int(frac[i]*30)))
	}
}
