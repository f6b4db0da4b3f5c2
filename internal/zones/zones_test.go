package zones

import (
	"strings"
	"testing"

	"dpsadopt/internal/simtime"
)

func build(t *testing.T, cfg Config) *TLD {
	t.Helper()
	tld, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tld
}

func TestGrowthTargetsHit(t *testing.T) {
	cfg := Config{
		TLD:         "com",
		Window:      simtime.Range{Start: 0, End: 100},
		StartCount:  10000,
		EndCount:    11000,
		ChurnPerDay: 0.001,
		Seed:        1,
	}
	tld := build(t, cfg)
	if got := activeCount(tld, 0); got != 10000 {
		t.Errorf("day 0 count = %d", got)
	}
	if got := activeCount(tld, 99); got != 11000 {
		t.Errorf("day 99 count = %d", got)
	}
	// Growth should be roughly monotone day over day.
	prev := activeCount(tld, 0)
	for d := simtime.Day(10); d < 100; d += 10 {
		cur := activeCount(tld, d)
		if cur < prev-20 {
			t.Errorf("population dropped: day %d %d -> %d", d, prev, cur)
		}
		prev = cur
	}
}

// activeCount is the number of t's domains registered on day.
func activeCount(t *TLD, day simtime.Day) int {
	n := 0
	for _, d := range t.Domains {
		if d.Active.Contains(day) {
			n++
		}
	}
	return n
}

func TestChurnCreatesTurnover(t *testing.T) {
	cfg := Config{
		TLD:         "net",
		Window:      simtime.Range{Start: 0, End: 200},
		StartCount:  5000,
		EndCount:    5000,
		ChurnPerDay: 0.002, // 0.2%/day over 200 days ≈ 40% turnover
		Seed:        2,
	}
	tld := build(t, cfg)
	if len(tld.Domains) <= 5000 {
		t.Errorf("no turnover: observed = %d", len(tld.Domains))
	}
	// Observed should be ~5000 + 200*10 = ~7000.
	if len(tld.Domains) < 6500 || len(tld.Domains) > 7500 {
		t.Errorf("observed = %d, want ≈7000", len(tld.Domains))
	}
	if got := activeCount(tld, 199); got < 4950 || got > 5050 {
		t.Errorf("final count = %d, want ≈5000", got)
	}
}

func TestShrinkingTLD(t *testing.T) {
	cfg := Config{
		TLD:        "org",
		Window:     simtime.Range{Start: 0, End: 50},
		StartCount: 1000,
		EndCount:   900,
		Seed:       3,
	}
	tld := build(t, cfg)
	if got := activeCount(tld, 49); got != 900 {
		t.Errorf("final = %d", got)
	}
}

func TestNamesUniqueAndValid(t *testing.T) {
	tld := build(t, Config{
		TLD: "com", Window: simtime.Range{Start: 0, End: 30},
		StartCount: 2000, EndCount: 2100, ChurnPerDay: 0.01, Seed: 4,
	})
	seen := make(map[string]bool, len(tld.Domains))
	for _, d := range tld.Domains {
		if seen[d.Name] {
			t.Fatalf("duplicate name %s", d.Name)
		}
		seen[d.Name] = true
		if !strings.HasSuffix(d.Name, ".com") {
			t.Fatalf("bad suffix: %s", d.Name)
		}
		if strings.Count(d.Name, ".") != 1 {
			t.Fatalf("not an SLD: %s", d.Name)
		}
	}
}

func TestDeterministic(t *testing.T) {
	cfg := Config{
		TLD: "nl", Window: simtime.Range{Start: 366, End: 550},
		StartCount: 590, EndCount: 600, ChurnPerDay: 0.001, Seed: 42,
	}
	a := build(t, cfg)
	b := build(t, cfg)
	if len(a.Domains) != len(b.Domains) {
		t.Fatal("runs differ in size")
	}
	for i := range a.Domains {
		if a.Domains[i] != b.Domains[i] {
			t.Fatalf("domain %d differs", i)
		}
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := Build(Config{TLD: "x", Window: simtime.Range{Start: 5, End: 5}}); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := Build(Config{TLD: "x", Window: simtime.Range{Start: 0, End: 5}, StartCount: -1}); err == nil {
		t.Error("negative count accepted")
	}
}
