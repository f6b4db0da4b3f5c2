// Command dpsquery inspects one domain of the simulated world on one day:
// its DNS state with each address's pfx2as origin, and the pipeline's
// verdict on which DPS it uses — its TLD zone measured for the day and
// run through the paper's §3.3 detection.
//
// Usage:
//
//	dpsquery -domain NAME [-date 2015-03-05] [-scale 100000]
//
// Run without -domain to list a few protected domains to try.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"dpsadopt/cmd/internal/cli"
	"dpsadopt/internal/core"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/pfx2as"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

func main() {
	var (
		domain = flag.String("domain", "", "domain to inspect")
		date   = flag.String("date", "2015-03-05", "day to inspect")
		scale  = flag.Int("scale", 100_000, "world scale divisor")
	)
	cli.Parse("dpsquery", 0)

	w := cli.World(*scale)
	refs := core.MustGroundTruth()

	if *domain == "" {
		fmt.Println("no -domain given; some protected domains in this world:")
		n := 0
		for _, d := range w.Domains {
			if d.Cust != nil && n < 10 {
				fmt.Printf("  %-20s (%s customer)\n", d.Name, refs.Providers[d.Cust.Provider].Name)
				n++
			}
		}
		for i, op := range w.Operators {
			for _, d := range w.Domains {
				if d.Operator == i && d.OpIdx == 0 {
					fmt.Printf("  %-20s (%s cohort)\n", d.Name, op.Spec.Name)
					break
				}
			}
		}
		return
	}

	day, err := simtime.Parse(*date)
	if err != nil {
		log.Fatal(err)
	}
	d, ok := w.DomainByName(strings.ToLower(*domain))
	if !ok {
		log.Fatal(fmt.Errorf("domain %q not in this world (try a smaller -scale)", *domain))
	}
	st := w.StateFor(d, day)
	fmt.Printf("%s on %s:\n", d.Name, day)
	switch {
	case !st.Exists:
		fmt.Println("  not registered on this day")
		return
	case st.Unmeasurable:
		fmt.Println("  DNS outage at its operator: no measurement possible")
		return
	}
	table, err := pfx2as.FromSnapshot(w.RIBForDay(day).Snapshot())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  NS:", strings.Join(st.NSHosts, ", "))
	for _, a := range st.ApexA {
		origins, _ := table.Lookup(a)
		fmt.Printf("  apex A: %v (origin %v)\n", a, origins)
	}
	if st.WWWCNAME != "" {
		fmt.Printf("  www CNAME: %s\n", st.WWWCNAME)
	}
	for _, a := range st.WWWA {
		origins, _ := table.Lookup(a)
		fmt.Printf("  www A: %v (origin %v)\n", a, origins)
	}

	// The verdict is the pipeline's own: measure the domain's TLD zone
	// for the day and run §3.3 detection over every record kind.
	window := w.Cfg.Window
	if d.TLD == "nl" {
		window = w.Cfg.NLWindow
	}
	if !window.Contains(day) {
		fmt.Printf("  => not measured: the .%s zone is measured over %s\n", d.TLD, window)
		return
	}
	s := store.New()
	pipe := measure.New(w, s, measure.Config{Mode: measure.ModeDirect, Workers: 1})
	if err := pipe.RunPartition(context.Background(), d.TLD, day); err != nil {
		log.Fatal(err)
	}
	det := core.DetectDay(s, d.TLD, day, refs)
	detected := false
	for p := range refs.Providers {
		if m, ok := det.Uses(p)[d.Name]; ok {
			detected = true
			fmt.Printf("  => uses %s via %s references\n", refs.Providers[p].Name, m)
		}
	}
	if !detected {
		fmt.Println("  => no DPS references on this day")
	}
}
