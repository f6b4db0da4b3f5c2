package core

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"dpsadopt/internal/bgp"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/pfx2as"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// domainAgg aggregates one domain's references for a day.
type domainAgg struct {
	asns   map[uint32]bool
	cnames map[string]bool // SLDs
	nss    map[string]bool // SLDs
}

// discoverOracle is the string-keyed §3.3 procedure Discover replaced,
// kept verbatim as the reference: one pass per provider over presentation
// Rows, three Go maps per domain.
func discoverOracle(s *store.Store, sources []string, day simtime.Day, reg *bgp.Registry, providerName string, table pfx2as.Table, probe Prober, cfg DiscoveryConfig) (ProviderRefs, error) {
	cfg.defaults()
	out := ProviderRefs{Name: providerName}

	// Step 1: seed ASNs from AS-to-name data.
	seeds := make(map[uint32]bool)
	for _, asn := range reg.FindByName(providerName) {
		seeds[uint32(asn)] = true
	}
	if len(seeds) == 0 {
		return out, fmt.Errorf("core: no ASes named %q in registry", providerName)
	}

	// One pass: aggregate per-domain references across sources.
	domains := make(map[string]*domainAgg)
	for _, src := range sources {
		s.ForEachRow(src, day, func(r store.Row) {
			agg := domains[r.Domain]
			if agg == nil {
				agg = &domainAgg{asns: map[uint32]bool{}, cnames: map[string]bool{}, nss: map[string]bool{}}
				domains[r.Domain] = agg
			}
			switch r.Kind {
			case store.KindApexA, store.KindApexAAAA, store.KindWWWA, store.KindWWWAAAA:
				for _, a := range r.ASNs {
					agg.asns[a] = true
				}
			case store.KindWWWCNAME:
				agg.cnames[SLD(r.Str)] = true
			case store.KindNS:
				agg.nss[SLD(r.Str)] = true
			}
		})
	}

	// Step 2: count SLD support among seed-referencing domains, and total
	// bearers for specificity.
	type counts struct{ support, total int }
	cnameCounts := map[string]*counts{}
	nsCounts := map[string]*counts{}
	bump := func(m map[string]*counts, sld string, ref bool) {
		c := m[sld]
		if c == nil {
			c = &counts{}
			m[sld] = c
		}
		c.total++
		if ref {
			c.support++
		}
	}
	for _, agg := range domains {
		ref := false
		for a := range agg.asns {
			if seeds[a] {
				ref = true
				break
			}
		}
		for sld := range agg.cnames {
			bump(cnameCounts, sld, ref)
		}
		for sld := range agg.nss {
			bump(nsCounts, sld, ref)
		}
	}

	// Step 3: qualify SLDs by specificity or probe. The probe path makes
	// no demand on seed-AS support: an NS-only managed-DNS service's
	// customers never route to the provider, yet the service SLD itself
	// is hosted there.
	qualify := func(m map[string]*counts) []string {
		var out []string
		for sld, c := range m {
			if c.total < cfg.MinSupport {
				continue
			}
			if c.support >= cfg.MinSupport && float64(c.support)/float64(c.total) >= cfg.MinSpecificity {
				out = append(out, sld)
				continue
			}
			if probe != nil {
				if addr, ok := probe(sld); ok {
					if origins, ok := table.Lookup(addr); ok {
						for _, o := range origins {
							if seeds[o] {
								out = append(out, sld)
								break
							}
						}
					}
				}
			}
		}
		sort.Strings(out)
		return out
	}
	out.CNAMESLDs = qualify(cnameCounts)
	out.NSSLDs = qualify(nsCounts)

	qualified := map[string]bool{}
	for _, sld := range out.CNAMESLDs {
		qualified["c:"+sld] = true
	}
	for _, sld := range out.NSSLDs {
		qualified["n:"+sld] = true
	}

	// Step 4a: find missed ASNs — origin ASes whose domain population
	// overwhelmingly bears the provider's qualified SLDs.
	perASN := map[uint32]*counts{}
	for _, agg := range domains {
		bears := false
		for sld := range agg.cnames {
			if qualified["c:"+sld] {
				bears = true
			}
		}
		for sld := range agg.nss {
			if qualified["n:"+sld] {
				bears = true
			}
		}
		for a := range agg.asns {
			c := perASN[a]
			if c == nil {
				c = &counts{}
				perASN[a] = c
			}
			c.total++
			if bears {
				c.support++
			}
		}
	}
	for a, c := range perASN {
		if seeds[a] || c.total < cfg.MinASSupport {
			continue
		}
		if float64(c.support)/float64(c.total) >= cfg.MinASCohesion {
			seeds[a] = true
		}
	}

	// Step 4b: prune seed ASNs that no measured domain references and
	// that host none of the qualified SLDs — ASes that match the holder
	// name but are not mitigation infrastructure.
	probeOrigins := map[uint32]bool{}
	if probe != nil {
		for _, sld := range append(append([]string(nil), out.CNAMESLDs...), out.NSSLDs...) {
			if addr, ok := probe(sld); ok {
				if origins, ok := table.Lookup(addr); ok {
					for _, o := range origins {
						probeOrigins[o] = true
					}
				}
			}
		}
	}
	for a := range seeds {
		c := perASN[a]
		if (c == nil || c.total == 0) && !probeOrigins[a] {
			delete(seeds, a)
		}
	}

	for a := range seeds {
		out.ASNs = append(out.ASNs, a)
	}
	out.normalize()
	return out, nil
}

// TestDiscoverMatchesOracle demands the ID-native rounds reproduce the
// string-keyed procedure exactly, for every provider on every test day,
// with and without a prober, at MinSupport 1 and at the defaults — and
// that Discover is the matching DiscoverAll row.
func TestDiscoverMatchesOracle(t *testing.T) {
	// Its own, smaller world: the oracle rebuilds three maps per domain
	// for each of the 108 (day, prober, config, provider) cells.
	w, err := worldsim.New(worldsim.DefaultConfig(16000))
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	days := append([]simtime.Day{10}, testDays...) // + day index 10 of the window
	pipe := measure.New(w, s, measure.Config{Mode: measure.ModeDirect, Workers: 2})
	for _, d := range days {
		if err := pipe.RunDay(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	truth := MustGroundTruth()
	names := make([]string, len(truth.Providers))
	for i := range truth.Providers {
		names[i] = truth.Providers[i].Name
	}
	qualified := 0
	for _, day := range days {
		table := dayTable(t, w, day)
		probes := map[string]Prober{
			"probe": func(sld string) (netip.Addr, bool) { return w.ProbeApex(sld, day) },
			"nil":   nil,
		}
		cfgs := map[string]DiscoveryConfig{
			"min1":     {MinSupport: 1, MinASSupport: 1},
			"defaults": {},
		}
		for pn, probe := range probes {
			for cn, cfg := range cfgs {
				all, err := DiscoverAll(s, worldsim.GTLDs(), day, w.Registry, names, table, probe, cfg)
				if err != nil {
					t.Fatalf("%s %s/%s: %v", day, pn, cn, err)
				}
				for i, name := range names {
					want, err := discoverOracle(s, worldsim.GTLDs(), day, w.Registry, name, table, probe, cfg)
					if err != nil {
						t.Fatal(err)
					}
					qualified += len(want.CNAMESLDs) + len(want.NSSLDs)
					if !reflect.DeepEqual(all[i], want) {
						t.Errorf("%s %s/%s %s:\n got %+v\nwant %+v", day, pn, cn, name, all[i], want)
					}
					one, err := Discover(s, worldsim.GTLDs(), day, w.Registry, name, table, probe, cfg)
					if err != nil || !reflect.DeepEqual(one, all[i]) {
						t.Errorf("%s %s/%s %s: Discover = %+v, %v; DiscoverAll row %+v", day, pn, cn, name, one, err, all[i])
					}
				}
			}
		}
	}
	if qualified == 0 {
		t.Fatal("the oracle qualified no SLD in any cell: the comparison is vacuous")
	}
}

// countingSource counts AcquireBatch calls per partition.
type countingSource struct {
	BatchSource
	acquired map[Partition]int
}

func (c *countingSource) AcquireBatch(source string, day simtime.Day) (store.RowBatch, func(), error) {
	c.acquired[Partition{Source: source, Day: day}]++
	return c.BatchSource.AcquireBatch(source, day)
}

// TestDiscoverAllReadsEachPartitionOnce: nine providers, one read of
// each gTLD partition — and none at all when a name is unknown.
func TestDiscoverAllReadsEachPartitionOnce(t *testing.T) {
	w, s := measuredWorld(t)
	table := dayTable(t, w, quietDay)
	var names []string
	for _, p := range MustGroundTruth().Providers {
		names = append(names, p.Name)
	}
	src := &countingSource{BatchSource: s, acquired: map[Partition]int{}}
	if _, err := DiscoverAll(src, worldsim.GTLDs(), quietDay, w.Registry, names, table, nil, DiscoveryConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, tld := range worldsim.GTLDs() {
		if n := src.acquired[Partition{Source: tld, Day: quietDay}]; n != 1 {
			t.Errorf("%s acquired %d times, want 1", tld, n)
		}
	}
	if len(src.acquired) != len(worldsim.GTLDs()) {
		t.Errorf("acquired %v", src.acquired)
	}
	clear(src.acquired)
	if _, err := DiscoverAll(src, worldsim.GTLDs(), quietDay, w.Registry, append(names, "NoSuchProvider"), table, nil, DiscoveryConfig{}); err == nil {
		t.Error("unknown provider accepted")
	}
	if len(src.acquired) != 0 {
		t.Errorf("partitions read before the unknown name was refused: %v", src.acquired)
	}
}

// TestDiscoverAllAllocsPerDomain keeps the day aggregation in slices: the
// string-keyed procedure allocated three maps per measured domain per
// provider; the whole nine-provider call now stays far below one
// allocation per domain (the ceiling is ~1.5× what it does today).
func TestDiscoverAllAllocsPerDomain(t *testing.T) {
	w, s := measuredWorld(t)
	table := dayTable(t, w, quietDay)
	probe := func(sld string) (netip.Addr, bool) { return w.ProbeApex(sld, quietDay) }
	var names []string
	for _, p := range MustGroundTruth().Providers {
		names = append(names, p.Name)
	}
	domains := 0
	for _, tld := range worldsim.GTLDs() {
		domains += DetectDay(s, tld, quietDay, MustGroundTruth()).DomainsMeasured
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := DiscoverAll(s, worldsim.GTLDs(), quietDay, w.Registry, names, table, probe, DiscoveryConfig{MinSupport: 1, MinASSupport: 1}); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(domains)
	t.Logf("%.0f allocations over %d measured domains = %.4f per domain", allocs, domains, per)
	if per > 0.023 {
		t.Errorf("DiscoverAll allocates %.4f times per measured domain, ceiling 0.023", per)
	}
}
