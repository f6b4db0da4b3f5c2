// Package core implements the paper's methodology (§3.3–§3.4): deriving
// DDoS-protection-service use from stored DNS measurements. Given the
// per-provider reference identities (AS numbers, CNAME second-level
// domains, NS second-level domains — Table 2), detection classifies every
// measured domain on every day by which references it exhibits; the
// discovery procedure reconstructs those identities from the measurement
// data itself, starting from AS-to-name seeds.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dpsadopt/internal/store"
)

// Method is a bitmask of reference kinds a domain exhibits toward a
// provider (§3.3: ASN, CNAME, and NS references).
type Method uint8

// Reference kinds.
const (
	RefAS Method = 1 << iota
	RefCNAME
	RefNS
)

// Has reports whether all bits of m2 are set.
func (m Method) Has(m2 Method) bool { return m&m2 == m2 }

// String renders e.g. "AS+CNAME".
func (m Method) String() string {
	var parts []string
	if m.Has(RefAS) {
		parts = append(parts, "AS")
	}
	if m.Has(RefCNAME) {
		parts = append(parts, "CNAME")
	}
	if m.Has(RefNS) {
		parts = append(parts, "NS")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ProviderRefs is one provider's reference identity (a Table 2 row).
type ProviderRefs struct {
	Name      string
	ASNs      []uint32
	CNAMESLDs []string
	NSSLDs    []string
}

// normalize sorts the reference lists for stable comparison.
func (p *ProviderRefs) normalize() {
	sort.Slice(p.ASNs, func(i, j int) bool { return p.ASNs[i] < p.ASNs[j] })
	sort.Strings(p.CNAMESLDs)
	sort.Strings(p.NSSLDs)
}

// String renders the row in Table 2 shape.
func (p ProviderRefs) String() string {
	asns := make([]string, len(p.ASNs))
	for i, a := range p.ASNs {
		asns[i] = fmt.Sprint(a)
	}
	return fmt.Sprintf("%-12s AS:%s CNAME:%s NS:%s",
		p.Name, strings.Join(asns, ","), strings.Join(p.CNAMESLDs, ","), strings.Join(p.NSSLDs, ","))
}

// References is the full provider reference database with lookup indexes.
// It must not be copied after first use (the ID-matcher cache carries a
// mutex); share it by pointer, as every caller does.
type References struct {
	Providers []ProviderRefs

	byASN map[uint32]int
	// asnDense is a flat ASN→provider table, so the per-ASN probe in the
	// detection hot loop is an array load instead of a map hash;
	// noProvider marks unclaimed slots. When it exists it is built to the
	// largest claimed ASN, so it answers for every ASN: one beyond its
	// length is claimed by nobody (most origin ASNs in a measurement are —
	// probing byASN for them was a fifth of detection's CPU). It is nil,
	// and byASN answers, only when no ASN is claimed or the largest is
	// ≥ 1<<20.
	asnDense []int16
	byCNAME  map[string]int
	byNS     map[string]int

	// matchers caches one IDMatcher per store dictionary, so repeated
	// DetectDay calls over the same store amortize every SLD extraction.
	matcherMu sync.Mutex
	matchers  map[*store.Dict]*IDMatcher
}

// NewReferences builds the indexes for a set of provider rows. Reference
// values must not collide across providers.
func NewReferences(provs []ProviderRefs) (*References, error) {
	r := &References{
		Providers: provs,
		byASN:     make(map[uint32]int),
		byCNAME:   make(map[string]int),
		byNS:      make(map[string]int),
	}
	for i := range r.Providers {
		r.Providers[i].normalize()
		p := &r.Providers[i]
		for _, a := range p.ASNs {
			if prev, dup := r.byASN[a]; dup && prev != i {
				return nil, fmt.Errorf("core: ASN %d claimed by %s and %s", a, r.Providers[prev].Name, p.Name)
			}
			r.byASN[a] = i
		}
		for _, s := range p.CNAMESLDs {
			if prev, dup := r.byCNAME[s]; dup && prev != i {
				return nil, fmt.Errorf("core: CNAME SLD %s claimed twice", s)
			}
			r.byCNAME[s] = i
		}
		for _, s := range p.NSSLDs {
			if prev, dup := r.byNS[s]; dup && prev != i {
				return nil, fmt.Errorf("core: NS SLD %s claimed twice", s)
			}
			r.byNS[s] = i
		}
	}
	// Densify: real origin-AS numbers are small, so one flat table
	// covers essentially every probe (capped so a stray 32-bit ASN
	// cannot balloon the allocation).
	const denseCap = 1 << 20
	maxASN := uint32(0)
	for a := range r.byASN {
		if a > maxASN {
			maxASN = a
		}
	}
	if len(r.byASN) > 0 && maxASN < denseCap {
		r.asnDense = make([]int16, maxASN+1)
		for i := range r.asnDense {
			r.asnDense[i] = noProvider
		}
		for a, p := range r.byASN {
			r.asnDense[a] = int16(p)
		}
	}
	return r, nil
}

// NumProviders returns the number of providers in the table.
func (r *References) NumProviders() int { return len(r.Providers) }

// MatchASN returns the provider owning an origin AS.
func (r *References) MatchASN(asn uint32) (int, bool) {
	if int(asn) < len(r.asnDense) {
		p := r.asnDense[asn]
		return int(p), p >= 0
	}
	if r.asnDense != nil {
		return 0, false
	}
	i, ok := r.byASN[asn]
	return i, ok
}

// IDMatcher resolves interned CNAME/NS values to providers by dictionary
// ID: the first lookup of an ID pays one Dict.Str + SLD extraction, every
// later one is a single atomic array load (negative results are cached
// too — almost every NS host in a measurement resolves to no provider).
// Dictionary IDs are stable for the life of a store, so entries never
// invalidate. Safe for concurrent use by DetectRange workers.
type IDMatcher struct {
	refs *References
	dict *store.Dict

	mu    sync.Mutex // serializes table growth only
	cname idCache
	ns    idCache
}

// idCache is a dense ID→provider table exploiting the dictionary's
// sequential ID space: slot id holds 0 (unresolved) or the provider
// encoded as p+2, so the cached "no provider" answer (−1) becomes 1 and
// stays distinguishable from an untouched slot. Hits and misses alike
// are lock-free — a miss recomputes the answer and stores it with a
// plain atomic write. The answer is a pure function of the ID, so a
// racing store by another worker writes the same value; the mutex only
// serializes growing the table when an ID beyond its length appears.
// This replaced a copy-on-write map snapshot whose miss-path lock and
// geometric republishing dominated the mutex profile under DetectRange
// fan-out (see DESIGN.md §10).
type idCache struct {
	table atomic.Pointer[[]atomic.Int32]
}

// get returns the cached provider for an ID, if resolved.
func (c *idCache) get(id uint32) (int16, bool) {
	t := c.table.Load()
	if t == nil || int(id) >= len(*t) {
		return 0, false
	}
	v := (*t)[id].Load()
	if v == 0 {
		return 0, false
	}
	return int16(v - 2), true
}

// set records an answer, growing the table under mu when the ID is out
// of range. A store lost to a concurrent grow only costs a later
// recompute of the same value.
func (c *idCache) set(id uint32, p int16, mu *sync.Mutex, minLen int) {
	t := c.table.Load()
	if t == nil || int(id) >= len(*t) {
		mu.Lock()
		t = c.table.Load()
		if t == nil || int(id) >= len(*t) {
			n := max(minLen, int(id)+1)
			if t != nil {
				n = max(n, 2*len(*t))
			}
			next := make([]atomic.Int32, n)
			if t != nil {
				for i := range *t {
					next[i].Store((*t)[i].Load())
				}
			}
			c.table.Store(&next)
			t = &next
		}
		mu.Unlock()
	}
	(*t)[id].Store(int32(p) + 2)
}

// noProvider is the cached negative lookup.
const noProvider = int16(-1)

// ForDict returns the ID matcher binding these references to a store
// dictionary, creating and caching it on first use.
func (r *References) ForDict(dict *store.Dict) *IDMatcher {
	r.matcherMu.Lock()
	defer r.matcherMu.Unlock()
	if r.matchers == nil {
		r.matchers = make(map[*store.Dict]*IDMatcher)
	}
	m := r.matchers[dict]
	if m == nil {
		m = &IDMatcher{refs: r, dict: dict}
		r.matchers[dict] = m
	}
	return m
}

// Forget drops the cached ID matcher of a dictionary the caller is done
// with, so References does not pin the dictionary of every store it has
// ever detected over. Detecting over dict again simply builds a new
// matcher.
func (r *References) Forget(dict *store.Dict) {
	r.matcherMu.Lock()
	delete(r.matchers, dict)
	r.matcherMu.Unlock()
}

// MatchCNAMEID returns the provider owning an interned CNAME target's
// SLD.
func (m *IDMatcher) MatchCNAMEID(id uint32) (int, bool) {
	if p, ok := m.cname.get(id); ok {
		return int(p), p >= 0
	}
	p := m.miss(id, &m.cname, m.refs.byCNAME)
	return int(p), p >= 0
}

// MatchNSID returns the provider owning an interned NS host's SLD.
func (m *IDMatcher) MatchNSID(id uint32) (int, bool) {
	if p, ok := m.ns.get(id); ok {
		return int(p), p >= 0
	}
	p := m.miss(id, &m.ns, m.refs.byNS)
	return int(p), p >= 0
}

// miss resolves an unresolved ID — one Dict.Str + SLD extraction + index
// probe — and caches the answer, sizing a fresh table to the dictionary
// so steady state needs no further growth.
func (m *IDMatcher) miss(id uint32, c *idCache, index map[string]int) int16 {
	p := noProvider
	if i, hit := index[SLD(m.dict.Str(id))]; hit {
		p = int16(i)
	}
	c.set(id, p, &m.mu, m.dict.Len())
	return p
}
