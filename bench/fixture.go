package main

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"

	"dpsadopt/internal/api"
	"dpsadopt/internal/core"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// e2e is one pass's end-to-end reading. wall, write and read are timing
// samples in seconds, as many as the pass could clock on its own (README.md
// says what one sample covers on each workload).
type e2e struct {
	wall, write, read []float64
	allocMB           float64
	bytesPerRow       float64
}

// tally counts what a run attempted and what failed: resolutions that
// gave up, partitions that failed or were skipped, non-200 responses and
// digest mismatches.
type tally struct {
	attempted, failed int
	mismatches        []string
}

func (t *tally) add(attempted, failed int) {
	t.attempted += attempted
	t.failed += failed
}

func (t *tally) check(what string, ok bool) {
	t.attempted++
	if !ok {
		t.failed++
		t.mismatches = append(t.mismatches, what)
	}
}

func (t *tally) digest(what, got, want string) {
	t.check(fmt.Sprintf("%s: digest %.12s, want %.12s", what, got, want), got == want && got != "")
}

// fixtureSize sizes a generated .dpsa dataset: Days days of the 1:Scale
// world measured in direct mode. BootDays > 0 also saves the first
// BootDays as their own file (serve_live boots from it).
type fixtureSize struct {
	Scale, Days, BootDays int
}

type fixture struct {
	full, boot string
	start      simtime.Day
}

// buildFixture generates the world from the seed, measures it and saves
// it. This is the bench's set-up; the same seed yields the same files.
func buildFixture(seed int64, size fixtureSize, dir string) (*fixture, error) {
	cfg := worldsim.DefaultConfig(size.Scale)
	cfg.Seed = seed
	w, err := worldsim.New(cfg)
	if err != nil {
		return nil, err
	}
	s := store.New()
	pipe := measure.New(w, s, measure.Config{Mode: measure.ModeDirect, Workers: measureWorkers})
	fx := &fixture{full: filepath.Join(dir, "full.dpsa"), start: w.Cfg.Window.Start}
	for i := 0; i < size.Days; i++ {
		if err := pipe.RunDay(context.Background(), fx.start+simtime.Day(i)); err != nil {
			return nil, err
		}
		if i+1 == size.BootDays {
			fx.boot = filepath.Join(dir, "boot.dpsa")
			if err := s.Save(fx.boot); err != nil {
				return nil, err
			}
		}
	}
	return fx, s.Save(fx.full)
}

// detectionsDigest is the canonical digest of a detection pass: per
// partition its row and domain counts and, per provider, every detected
// domain with its reference-kind combination, by name.
func detectionsDigest(dets []*core.DayDetections) string {
	// Canonical (source, day) order, whatever order the partitions came in.
	dets = slices.Clone(dets)
	slices.SortStableFunc(dets, func(a, b *core.DayDetections) int {
		if a == nil || b == nil {
			return 0
		}
		if c := cmp.Compare(a.Source, b.Source); c != 0 {
			return c
		}
		return cmp.Compare(a.Day, b.Day)
	})
	h := sha256.New()
	type use struct {
		name string
		m    core.Method
	}
	for _, det := range dets {
		if det == nil {
			fmt.Fprintln(h, "nil")
			continue
		}
		fmt.Fprintf(h, "%s %d rows=%d measured=%d\n", det.Source, det.Day, det.Rows, det.DomainsMeasured)
		for p := 0; p < det.NumProviders(); p++ {
			var uses []use
			det.EachUse(p, func(id uint32, m core.Method) { uses = append(uses, use{det.DomainName(id), m}) })
			slices.SortFunc(uses, func(a, b use) int { return cmp.Compare(a.name, b.name) })
			for _, u := range uses {
				fmt.Fprintf(h, "%d %s %d\n", p, u.name, u.m)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// indexDigest digests everything an index would serve: the day axis and
// per-day totals, every provider series, every domain history.
func indexDigest(idx *api.Index, refs *core.References) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, d := range idx.Days() {
		info, _ := idx.Day(d)
		_ = enc.Encode(info) // writes to a hash cannot fail
	}
	for i := range refs.Providers {
		s, _ := idx.Series(refs.Providers[i].Name)
		_ = enc.Encode(s)
	}
	for _, name := range idx.Domains() {
		hist, _ := idx.Domain(name)
		_ = enc.Encode(hist)
	}
	return hex.EncodeToString(h.Sum(nil))
}
