// Package zones models the evolution of top-level-domain namespaces: the
// daily registration and deletion of second-level domains that the paper's
// Stage I observes by downloading registry zone files every day.
//
// A TLD is built from a target start count, end count, and churn rate; the
// generator emits a deterministic set of domain lifetimes such that the
// number of active domains interpolates between the targets while the
// population turns over at the configured rate — reproducing both the
// "overall expansion" denominator of Figure 5 and the #SLDs-observed
// numerator of Table 1 (unique names seen over the whole period exceed the
// population on any single day).
package zones

import (
	"fmt"
	"math/rand"

	"dpsadopt/internal/simtime"
)

// Forever marks a domain that is never deleted within the simulation.
const Forever simtime.Day = 1 << 30

// Config describes one TLD's evolution.
type Config struct {
	// TLD is the zone label, e.g. "com".
	TLD string
	// Window is the modelled interval; counts are hit at Window.Start and
	// Window.End-1.
	Window simtime.Range
	// StartCount and EndCount are the active-domain targets.
	StartCount, EndCount int
	// ChurnPerDay is the fraction of the population deleted (and
	// replaced, beyond net growth) each day, e.g. 0.0005.
	ChurnPerDay float64
	// Seed drives the deterministic generator.
	Seed int64
}

// Lifetime is one domain's existence interval. Names are unique within
// the TLD.
type Lifetime struct {
	Name   string
	Active simtime.Range // [registration, deletion)
}

// TLD is a generated namespace.
type TLD struct {
	Config  Config
	Domains []Lifetime
}

// Build generates the namespace for cfg.
func Build(cfg Config) (*TLD, error) {
	if cfg.StartCount < 0 || cfg.EndCount < 0 || cfg.Window.Len() == 0 {
		return nil, fmt.Errorf("zones: bad config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &TLD{Config: cfg}
	// Initial population, registered before the window opens.
	for i := 0; i < cfg.StartCount; i++ {
		t.Domains = append(t.Domains, Lifetime{
			Name:   domainName(cfg.TLD, len(t.Domains)),
			Active: simtime.Range{Start: cfg.Window.Start - 1, End: Forever},
		})
	}
	alive := make([]int, cfg.StartCount)
	for i := range alive {
		alive[i] = i
	}
	days := cfg.Window.Len()
	for di := 1; di < days; di++ {
		day := cfg.Window.Start + simtime.Day(di)
		prevTarget := interpolate(cfg.StartCount, cfg.EndCount, di-1, days-1)
		target := interpolate(cfg.StartCount, cfg.EndCount, di, days-1)
		deaths := int(cfg.ChurnPerDay * float64(prevTarget))
		births := target - prevTarget + deaths
		if births < 0 {
			deaths -= births
			births = 0
		}
		for k := 0; k < deaths && len(alive) > 0; k++ {
			j := rng.Intn(len(alive))
			idx := alive[j]
			t.Domains[idx].Active.End = day
			alive[j] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		}
		for k := 0; k < births; k++ {
			t.Domains = append(t.Domains, Lifetime{
				Name:   domainName(cfg.TLD, len(t.Domains)),
				Active: simtime.Range{Start: day, End: Forever},
			})
			alive = append(alive, len(t.Domains)-1)
		}
	}
	return t, nil
}

// interpolate returns the population target after step of total steps.
func interpolate(start, end, step, total int) int {
	if total <= 0 {
		return start
	}
	return start + (end-start)*step/total
}

// domainName derives a stable, pronounceable-ish unique name from the
// domain's index: alternating consonant/vowel digits of the index, plus a
// short numeric disambiguator.
func domainName(tld string, idx int) string {
	const consonants = "bcdfghjklmnpqrstvwz"
	const vowels = "aeiou"
	n := idx
	buf := make([]byte, 0, 12)
	for i := 0; i < 3; i++ {
		buf = append(buf, consonants[n%len(consonants)])
		n /= len(consonants)
		buf = append(buf, vowels[n%len(vowels)])
		n /= len(vowels)
	}
	return fmt.Sprintf("%s%d.%s", buf, idx, tld)
}
