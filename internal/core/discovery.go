package core

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"dpsadopt/internal/bgp"
	"dpsadopt/internal/pfx2as"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// This file implements the reference-discovery procedure of §3.3:
//
//	"We take the ASNs of a DPS as starting point [from AS-to-name data].
//	 Then we find all the domain names that reference these ASNs and
//	 analyze frequently occurring SLDs in CNAME and NS records. The SLDs
//	 obtained in this manner are used to find any ASNs we may have missed
//	 in the first step, or to remove ASNs that do not belong to the
//	 mitigation infrastructure of a DPS."
//
// Where the authors applied judgment (pruning third-party SLDs such as
// registrars' name-server domains), this implementation applies two
// automatic filters: a *specificity* filter (most domains bearing the SLD
// must route to the provider) and an *active probe* (the SLD's own apex
// must be hosted in the provider's address space — how a managed-DNS
// service like verisigndns.com identifies itself even though its
// customers' addresses stay elsewhere).

// Prober resolves the apex address of a candidate SLD (an active
// measurement outside the daily pipeline).
type Prober func(sld string) (netip.Addr, bool)

// DiscoveryConfig tunes the §3.3 procedure.
type DiscoveryConfig struct {
	// MinSupport is the minimum number of provider-routed domains that
	// must bear an SLD before it is considered (default 3).
	MinSupport int
	// MinSpecificity is the minimum fraction of all domains bearing the
	// SLD that must route to the provider (default 0.9) for the SLD to
	// qualify without a probe.
	MinSpecificity float64
	// MinASCohesion is the minimum fraction of a candidate missed ASN's
	// domains that must bear a qualified SLD (default 0.8).
	MinASCohesion float64
	// MinASSupport is the minimum number of domains at a candidate
	// missed ASN (default 3).
	MinASSupport int
}

func (c *DiscoveryConfig) defaults() {
	if c.MinSupport == 0 {
		c.MinSupport = 3
	}
	if c.MinSpecificity == 0 {
		c.MinSpecificity = 0.9
	}
	if c.MinASCohesion == 0 {
		c.MinASCohesion = 0.8
	}
	if c.MinASSupport == 0 {
		c.MinASSupport = 3
	}
}

// dayRefs is the provider-independent aggregation of one measured day
// that every provider's §3.3 rounds run over: per domain, its distinct
// origin ASNs and distinct CNAME/NS SLDs. ASNs and SLDs are renumbered
// densely as they are first seen, so the rounds count into plain slices
// instead of hashing strings.
type dayRefs struct {
	// entries holds domainID<<32 | class<<30 | index once per distinct
	// triple, sorted: a domain's references are one contiguous run.
	entries []uint64
	asns    []uint32 // index → origin AS
	asnIdx  map[uint32]uint32
	slds    []string // index → SLD, shared by the CNAME and NS classes
	// total[class][i] counts the domains bearing index i — the
	// denominators of specificity (SLDs) and cohesion (ASNs).
	total [numClasses][]int32

	table pfx2as.Table
	probe Prober
	// apex memoises where each probed SLD's own apex is routed: the
	// answer is the same for every provider.
	apex map[string]pfx2as.Origins
}

// Entry classes.
const (
	classASN = iota
	classCNAME
	classNS
	numClasses
)

func entryClass(e uint64) int    { return int(e >> 30 & 3) }
func entryIndex(e uint64) uint32 { return uint32(e & (1<<30 - 1)) }

// aggregateDay reads each source's partition of the day once. SLD runs
// once per distinct dictionary string, not once per row: a day has a few
// hundred distinct NS hosts under tens of thousands of NS rows.
func aggregateDay(src BatchSource, sources []string, day simtime.Day, table pfx2as.Table, probe Prober) (*dayRefs, error) {
	dict, err := src.SharedDict()
	if err != nil {
		return nil, err
	}
	g := &dayRefs{asnIdx: map[uint32]uint32{}, table: table, probe: probe, apex: map[string]pfx2as.Origins{}}
	sldIdx := map[string]uint32{}
	sldOf := make([]uint32, dict.Len()) // dict string ID → SLD index + 1
	for _, source := range sources {
		b, release, err := src.AcquireBatch(source, day)
		if err != nil {
			return nil, fmt.Errorf("core: discovery over %s/%s: %w", source, day, err)
		}
		g.entries = slices.Grow(g.entries, b.Rows())
		for i, n := 0, b.Rows(); i < n; i++ {
			dom := uint64(b.Domains[i]) << 32
			switch kind := b.Kinds[i]; kind {
			case store.KindWWWCNAME, store.KindNS:
				class := uint64(classCNAME)
				if kind == store.KindNS {
					class = classNS
				}
				id := b.Strs[i]
				if sldOf[id] == 0 {
					sld := SLD(dict.Str(id))
					j, ok := sldIdx[sld]
					if !ok {
						j = uint32(len(g.slds))
						sldIdx[sld] = j
						g.slds = append(g.slds, sld)
					}
					sldOf[id] = j + 1
				}
				g.entries = append(g.entries, dom|class<<30|uint64(sldOf[id]-1))
			default: // address kinds
				for _, a := range b.ASNs(i) {
					j, ok := g.asnIdx[a]
					if !ok {
						j = uint32(len(g.asns))
						g.asnIdx[a] = j
						g.asns = append(g.asns, a)
					}
					g.entries = append(g.entries, dom|uint64(j))
				}
			}
		}
		release()
	}
	slices.Sort(g.entries)
	g.entries = slices.Compact(g.entries)
	g.total = [numClasses][]int32{make([]int32, len(g.asns)), make([]int32, len(g.slds)), make([]int32, len(g.slds))}
	for _, e := range g.entries {
		g.total[entryClass(e)][entryIndex(e)]++
	}
	return g, nil
}

// countBearers adds one to count[class][index] for every reference of
// every domain that has at least one marked reference; a nil mark[class]
// marks nothing and a nil count[class] counts nothing of that class.
func (g *dayRefs) countBearers(mark *[numClasses][]bool, count *[numClasses][]int32) {
	for i := 0; i < len(g.entries); {
		j, hit := i, false
		for ; j < len(g.entries) && g.entries[j]>>32 == g.entries[i]>>32; j++ {
			m := mark[entryClass(g.entries[j])]
			hit = hit || m != nil && m[entryIndex(g.entries[j])]
		}
		if hit {
			for _, e := range g.entries[i:j] {
				if c := count[entryClass(e)]; c != nil {
					c[entryIndex(e)]++
				}
			}
		}
		i = j
	}
}

// apexOrigins probes an SLD's own apex and returns the origins of the
// address it resolves to (nil without a prober or an answer).
func (g *dayRefs) apexOrigins(sld string) pfx2as.Origins {
	if g.probe == nil {
		return nil
	}
	origins, done := g.apex[sld]
	if !done {
		if addr, ok := g.probe(sld); ok {
			origins, _ = g.table.Lookup(addr)
		}
		g.apex[sld] = origins
	}
	return origins
}

// discover runs the ASN → SLD → ASN rounds for one provider from its
// step-1 seed ASNs (AS-to-name data).
func (g *dayRefs) discover(name string, seedASNs []bgp.ASN, cfg DiscoveryConfig) ProviderRefs {
	out := ProviderRefs{Name: name}
	seeds := make(map[uint32]bool, len(seedASNs))
	seeded := [numClasses][]bool{classASN: make([]bool, len(g.asns))}
	for _, asn := range seedASNs {
		seeds[uint32(asn)] = true
		if i, ok := g.asnIdx[uint32(asn)]; ok {
			seeded[classASN][i] = true
		}
	}

	// Step 2: count SLD support among seed-referencing domains.
	support := [numClasses][]int32{classCNAME: make([]int32, len(g.slds)), classNS: make([]int32, len(g.slds))}
	g.countBearers(&seeded, &support)

	// Step 3: qualify SLDs by specificity or probe. The probe path makes
	// no demand on seed-AS support: an NS-only managed-DNS service's
	// customers never route to the provider, yet the service SLD itself
	// is hosted there.
	qualify := func(class int) (names []string, marks []bool) {
		marks = make([]bool, len(g.slds))
		for i, total := range g.total[class] {
			if int(total) < cfg.MinSupport { // includes SLDs seen only in the other class
				continue
			}
			sup := support[class][i]
			ok := int(sup) >= cfg.MinSupport && float64(sup)/float64(total) >= cfg.MinSpecificity
			if !ok {
				ok = slices.ContainsFunc(g.apexOrigins(g.slds[i]), func(o uint32) bool { return seeds[o] })
			}
			if ok {
				marks[i] = true
				names = append(names, g.slds[i])
			}
		}
		sort.Strings(names)
		return names, marks
	}
	var qualified [numClasses][]bool
	out.CNAMESLDs, qualified[classCNAME] = qualify(classCNAME)
	out.NSSLDs, qualified[classNS] = qualify(classNS)

	// Step 4a: find missed ASNs — origin ASes whose domain population
	// overwhelmingly bears the provider's qualified SLDs.
	cohesion := [numClasses][]int32{classASN: make([]int32, len(g.asns))}
	g.countBearers(&qualified, &cohesion)
	for i, a := range g.asns {
		total := g.total[classASN][i]
		if seeds[a] || int(total) < cfg.MinASSupport {
			continue
		}
		if float64(cohesion[classASN][i])/float64(total) >= cfg.MinASCohesion {
			seeds[a] = true
		}
	}

	// Step 4b: prune seed ASNs that no measured domain references and
	// that host none of the qualified SLDs — ASes that match the holder
	// name but are not mitigation infrastructure.
	hosting := map[uint32]bool{}
	for _, sld := range append(append([]string(nil), out.CNAMESLDs...), out.NSSLDs...) {
		for _, o := range g.apexOrigins(sld) {
			hosting[o] = true
		}
	}
	for a := range seeds {
		if _, measured := g.asnIdx[a]; measured || hosting[a] {
			out.ASNs = append(out.ASNs, a)
		}
	}
	out.normalize()
	return out
}

// DiscoverAll reconstructs the reference rows of the named providers from
// one day of measurements, reading each partition once for all of them.
// sources are the partitions to scan (typically the gTLDs); table is the
// day's pfx2as snapshot for probe classification. A name the registry
// does not know is an error before any partition is read.
func DiscoverAll(src BatchSource, sources []string, day simtime.Day, reg *bgp.Registry, names []string, table pfx2as.Table, probe Prober, cfg DiscoveryConfig) ([]ProviderRefs, error) {
	cfg.defaults()
	// Step 1: seed ASNs from AS-to-name data.
	seeds := make([][]bgp.ASN, len(names))
	for i, name := range names {
		if seeds[i] = reg.FindByName(name); len(seeds[i]) == 0 {
			return nil, fmt.Errorf("core: no ASes named %q in registry", name)
		}
	}
	g, err := aggregateDay(src, sources, day, table, probe)
	if err != nil {
		return nil, err
	}
	rows := make([]ProviderRefs, len(names))
	for i, name := range names {
		rows[i] = g.discover(name, seeds[i], cfg)
	}
	return rows, nil
}

// Discover is DiscoverAll for one provider.
func Discover(src BatchSource, sources []string, day simtime.Day, reg *bgp.Registry, providerName string, table pfx2as.Table, probe Prober, cfg DiscoveryConfig) (ProviderRefs, error) {
	rows, err := DiscoverAll(src, sources, day, reg, []string{providerName}, table, probe, cfg)
	if err != nil {
		return ProviderRefs{Name: providerName}, err
	}
	return rows[0], nil
}
