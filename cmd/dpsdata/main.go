// Command dpsdata inspects measurement dataset files written by dpsreport
// -out or dpscoord -out (the .dpsa binary archive): per-source
// statistics, row dumps, per-day DPS detection counts, and grep-style
// filtering.
//
// Usage:
//
//	dpsdata -data FILE                  # Table 1-style statistics
//	dpsdata -data FILE -info            # directory-only dataset summary
//	dpsdata -data FILE -dump com/0      # dump a partition (source/dayIndex)
//	dpsdata -data FILE -detect          # per-day per-provider counts
//	dpsdata -data FILE -grep cloudflare # rows whose strings match
//	dpsdata -data FILE -domain x.com    # one domain's full detection history
//	dpsdata -ledger DIR                 # a dpscoord directory's partition ledger
//
// -info, -dump, -detect, and -domain run out-of-core on the streaming
// store.Reader: -info answers from the partition directory without
// decoding anything, -dump preads and decodes exactly the requested day
// block, -detect streams partitions through detection one at a time,
// and -domain builds the internal/api read index via the streaming
// path — none of them holds the whole archive resident. -grep and the
// default statistics table still need every row and load fully.
// -ledger replays a coordination journal read-only (safe while a
// coordinator is live) and verifies each committed spool's CRCs, so
// operators see at a glance which partitions are committed, retrying,
// failed — and whether their spools are intact.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"dpsadopt/cmd/internal/cli"
	"dpsadopt/internal/api"
	"dpsadopt/internal/coord"
	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

func main() {
	var (
		data   = flag.String("data", "", "dataset file (.dpsa)")
		info   = flag.Bool("info", false, "print a directory-only dataset summary (no partition decoded)")
		dump   = flag.String("dump", "", "partition to dump as source/day (day = index into the source's day list)")
		detect = flag.Bool("detect", false, "run Table 2 detection per stored day")
		grep   = flag.String("grep", "", "print rows whose NS/CNAME strings contain this substring")
		domain = flag.String("domain", "", "print this domain's full detection history")
		limit  = flag.Int("limit", 20, "max rows for -dump/-grep")
		ledger = flag.String("ledger", "", "print a dpscoord coordination directory's partition ledger")
	)
	cli.Parse("dpsdata", 0)
	if *ledger != "" {
		if err := printLedger(*ledger); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *data == "" {
		fmt.Fprintln(os.Stderr, "dpsdata: -data FILE required")
		os.Exit(2)
	}

	// Streaming modes: everything that doesn't need every row resident
	// goes through the out-of-core Reader.
	if *info || *dump != "" || *detect || *domain != "" {
		r, err := store.Open(*data)
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		switch {
		case *info:
			printInfo(r)
		case *domain != "":
			printDomainHistory(r, strings.ToLower(strings.TrimSuffix(*domain, ".")))
		case *dump != "":
			err = dumpPartition(r, *dump, *limit)
		case *detect:
			err = detectStreaming(r)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	s, err := store.Load(*data)
	var partial *store.PartialLoadError
	if errors.As(err, &partial) {
		log.Printf("warning: %v; continuing with salvaged partitions", partial)
	} else if err != nil {
		log.Fatal(err)
	}

	switch {
	case *grep != "":
		n := 0
		for _, src := range s.Sources() {
			for _, day := range s.Days(src) {
				s.ForEachRow(src, day, func(r store.Row) {
					if n >= *limit || !strings.Contains(r.Str, *grep) {
						return
					}
					n++
					fmt.Printf("%s %s: ", src, day)
					printRow(r)
				})
			}
		}
	default:
		fmt.Printf("%-8s %6s %10s %12s %14s\n", "source", "days", "#SLDs", "#DPs", "size(flate)")
		for _, src := range s.Sources() {
			st := s.SourceStats(src)
			fmt.Printf("%-8s %6d %10d %12d %13dB\n", src, st.Days, st.UniqueSLDs, st.DataPoints, st.CompressedBytes)
		}
	}
}

// printLedger replays a coordination journal read-only and renders each
// partition's state, attempts, and — for committed partitions — whether
// its spool still passes CRC verification. Unlike the coordinator's own
// replay this never truncates a torn tail, so it is safe against a
// directory a live coordinator is writing.
func printLedger(dir string) error {
	recs, err := coord.NewJournalReader(dir).Next()
	if err != nil {
		return err
	}
	if recs == nil {
		return fmt.Errorf("no journal under %s", dir)
	}
	rows := coord.ReplayLedger(recs)
	fmt.Printf("%-10s %-12s %-10s %8s  %s\n", "source", "day", "state", "attempts", "spool")
	var committed, intact int
	for _, r := range rows {
		note := "-"
		if r.State == coord.StateCommitted {
			committed++
			day, _ := simtime.Parse(r.Day)
			spool := coord.ResolveSpool(dir, coord.Partition{Source: r.Source, Day: day}, r.Spool)
			if verr := store.Verify(spool); verr != nil {
				note = fmt.Sprintf("DAMAGED %s: %v", spool, verr)
			} else {
				intact++
				note = "ok " + spool
			}
		} else if r.Err != "" {
			note = r.Err
		}
		fmt.Printf("%-10s %-12s %-10s %8d  %s\n", r.Source, r.Day, r.State, r.Attempts, note)
	}
	fmt.Printf("%d partitions: %d committed (%d spools intact)\n", len(rows), committed, intact)
	if intact < committed {
		return fmt.Errorf("%d committed spool(s) fail verification", committed-intact)
	}
	return nil
}

// printInfo renders the Reader's directory-only summary: everything an
// operator wants to know about a dataset file before paying for a
// single partition decode.
func printInfo(r *store.Reader) {
	in := r.Info()
	fmt.Printf("%-16s %s\n", "path", in.Path)
	fmt.Printf("%-16s v%d\n", "format", in.Version)
	fmt.Printf("%-16s %d bytes (%d in partitions)\n", "size", in.FileBytes, in.PartitionBytes)
	fmt.Printf("%-16s %v\n", "sources", in.Sources)
	if in.Partitions > 0 {
		fmt.Printf("%-16s %s .. %s\n", "days", in.FirstDay, in.LastDay)
	}
	fmt.Printf("%-16s %d (%d rows)\n", "partitions", in.Partitions, in.Rows)
}

// dumpPartition resolves source/dayIndex against the Reader's directory
// and decodes exactly that partition.
func dumpPartition(r *store.Reader, spec string, limit int) error {
	source, day, err := resolvePartition(r, spec)
	if err != nil {
		return err
	}
	dict, err := r.SharedDict()
	if err != nil {
		return err
	}
	b, release, err := r.AcquireBatch(source, day)
	if err != nil {
		return err
	}
	defer release()
	n := b.Rows()
	if n > limit {
		n = limit
	}
	for i := 0; i < n; i++ {
		printRow(b.Row(i, dict))
	}
	return nil
}

// detectStreaming runs Table 2 detection one partition at a time:
// acquire → detect → release, never holding more than one decoded day.
func detectStreaming(r *store.Reader) error {
	refs := core.MustGroundTruth()
	for _, pt := range core.ReaderPartitions(r) {
		det, err := core.DetectPartition(r, pt.Source, pt.Day, refs)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s: measured=%d any=%d", pt.Source, pt.Day, det.DomainsMeasured, det.CountAny())
		for p := range refs.Providers {
			if c := det.Count(p); c > 0 {
				fmt.Printf(" %s=%d", refs.Providers[p].Name, c)
			}
		}
		fmt.Println()
	}
	return nil
}

// resolvePartition parses source/dayIndex against the Reader's
// directory listing.
func resolvePartition(r *store.Reader, spec string) (string, simtime.Day, error) {
	parts := strings.SplitN(spec, "/", 2)
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("dpsdata: -dump wants source/dayIndex")
	}
	var days []simtime.Day
	for _, ent := range r.Partitions() {
		if ent.Source == parts[0] {
			days = append(days, ent.Day)
		}
	}
	if len(days) == 0 {
		return "", 0, fmt.Errorf("dpsdata: no data for source %q", parts[0])
	}
	idx, err := strconv.Atoi(parts[1])
	if err != nil || idx < 0 || idx >= len(days) {
		return "", 0, fmt.Errorf("dpsdata: day index out of range [0,%d)", len(days))
	}
	return parts[0], days[idx], nil
}

// printDomainHistory renders one domain's detection record from the
// internal/api read index, built out-of-core via the streaming Reader —
// the structured replacement for grepping rows.
func printDomainHistory(r *store.Reader, name string) {
	idx, err := api.NewIndexReader(r, core.MustGroundTruth())
	var ibe *api.IndexBuildError
	if errors.As(err, &ibe) {
		log.Printf("warning: %v; continuing with readable partitions", ibe)
	} else if err != nil {
		log.Fatal(err)
	}
	h, ok := idx.Domain(name)
	if !ok {
		log.Fatalf("no DPS references recorded for %q", name)
	}
	fmt.Printf("%s: detected on %d day(s), %s .. %s\n", h.Domain, h.Days, h.FirstSeen, h.LastSeen)
	for _, p := range h.Providers {
		fmt.Printf("  %-12s via %-11s %s .. %s (%d days, peak run %d)\n",
			p.Provider, p.Methods, p.FirstSeen, p.LastSeen, p.Days, p.PeakRun)
		for _, iv := range p.Intervals {
			fmt.Printf("    %s .. %s  %-11s %d day(s)\n", iv.From, iv.To, iv.Methods, iv.Days)
		}
	}
}

func printRow(r store.Row) {
	if r.Str != "" {
		fmt.Printf("%-24s %-10s %s\n", r.Domain, r.Kind, r.Str)
	} else {
		fmt.Printf("%-24s %-10s %-18v AS%v\n", r.Domain, r.Kind, r.Addr, r.ASNs)
	}
}
