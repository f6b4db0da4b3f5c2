// Package dnszone models authoritative DNS zone data: RRsets keyed by owner
// name and type, with RFC 1034 lookup semantics (CNAME chains, delegation
// referrals, NODATA vs NXDOMAIN).
//
// Zones are the unit served by internal/dnsserver and the unit generated
// per day per TLD by the world simulator. A Zone is safe for concurrent
// readers beside a writer calling Add.
package dnszone

import (
	"fmt"
	"sort"
	"sync"

	"dpsadopt/internal/dnswire"
)

// DefaultTTL is applied by convenience constructors when the caller does
// not care about cache lifetimes (the measurement system re-queries daily).
const DefaultTTL = 3600

// maxCNAMEChain bounds in-zone CNAME chasing during a single lookup.
const maxCNAMEChain = 8

// Zone holds the authoritative data for one DNS zone.
type Zone struct {
	// Origin is the canonical apex name of the zone, e.g. "com" or
	// "examp.le".
	Origin string

	mu      sync.RWMutex
	records map[string]map[dnswire.Type][]dnswire.RR
	// cuts caches the set of delegation points (names below the apex
	// owning NS records). Maintained on mutation.
	cuts map[string]bool
}

// New creates an empty zone rooted at origin (canonicalised).
func New(origin string) (*Zone, error) {
	o, err := dnswire.CanonicalName(origin)
	if err != nil {
		return nil, fmt.Errorf("dnszone: bad origin: %w", err)
	}
	return &Zone{
		Origin:  o,
		records: make(map[string]map[dnswire.Type][]dnswire.RR),
		cuts:    make(map[string]bool),
	}, nil
}

// MustNew is New for trusted origins; it panics on error.
func MustNew(origin string) *Zone {
	z, err := New(origin)
	if err != nil {
		panic(err)
	}
	return z
}

// Add inserts a record. The owner must be at or below the zone origin.
// Duplicate records (same owner, type, and rendered RDATA) are ignored.
func (z *Zone) Add(rr dnswire.RR) error {
	name, err := dnswire.CanonicalName(rr.Name)
	if err != nil {
		return err
	}
	if !dnswire.IsSubdomain(name, z.Origin) {
		return fmt.Errorf("dnszone: %s is out of zone %s", name, z.Origin)
	}
	rr.Name = name
	if rr.Class == 0 {
		rr.Class = dnswire.ClassIN
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	byType := z.records[name]
	if byType == nil {
		byType = make(map[dnswire.Type][]dnswire.RR)
		z.records[name] = byType
	}
	for _, have := range byType[rr.Type] {
		if have.Data.String() == rr.Data.String() {
			return nil
		}
	}
	byType[rr.Type] = append(byType[rr.Type], rr)
	if rr.Type == dnswire.TypeNS && name != z.Origin {
		z.cuts[name] = true
	}
	return nil
}

// MustAdd is Add for programmatically generated records; panics on error.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// Result is the outcome of an authoritative lookup.
type Result struct {
	RCode         dnswire.RCode
	Authoritative bool
	// Answer carries the answer-section records, including any in-zone
	// CNAME chain in chain order.
	Answer []dnswire.RR
	// Authority carries NS records (delegation or apex) or the SOA for
	// negative answers.
	Authority []dnswire.RR
	// Additional carries glue addresses for names in Authority.
	Additional []dnswire.RR
	// Delegated reports that the result is a referral below a zone cut.
	Delegated bool
}

// LookupInto answers qname/qtype from the zone into res, following RFC
// 1034 §4.3.2: referral at delegation points, CNAME chains within the
// zone, NODATA versus NXDOMAIN distinction. Out-of-zone names yield
// REFUSED. The sections are truncated and appended to, so a caller that
// keeps res reuses their storage, and a lookup allocates nothing once
// they have grown.
func (z *Zone) LookupInto(res *Result, qname string, qtype dnswire.Type) {
	*res = Result{Answer: res.Answer[:0], Authority: res.Authority[:0], Additional: res.Additional[:0]}
	name, err := dnswire.CanonicalName(qname)
	if err != nil {
		res.RCode = dnswire.RCodeFormErr
		return
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	if !dnswire.IsSubdomain(name, z.Origin) {
		res.RCode = dnswire.RCodeRefused
		return
	}

	// Check for a zone cut strictly between the apex and qname.
	if cut, ok := z.cutAboveLocked(name); ok {
		res.Delegated = true
		res.Authority = append(res.Authority, z.records[cut][dnswire.TypeNS]...)
		res.Additional = z.appendGlueLocked(res.Additional, res.Authority)
		return
	}

	res.Authoritative = true
	cur := name
	for hop := 0; ; hop++ {
		byType := z.records[cur]
		synthesized := false
		if byType == nil {
			// RFC 1034 §4.3.3 wildcard synthesis: the closest matching
			// "*" label below the apex covers names that do not exist,
			// provided no closer encloser exists.
			byType = z.wildcardLocked(cur)
			synthesized = byType != nil
		}
		if byType == nil {
			if len(res.Answer) == 0 {
				res.RCode = dnswire.RCodeNXDomain
			}
			res.Authority = z.appendNegativeLocked(res.Authority)
			return
		}
		// CNAME takes precedence unless the query asks for the CNAME
		// itself (or ANY).
		if cn, ok := byType[dnswire.TypeCNAME]; ok && qtype != dnswire.TypeCNAME && qtype != dnswire.TypeANY {
			res.Answer = append(res.Answer, cn...)
			target := cn[0].Data.(dnswire.CNAME).Target
			if !dnswire.IsSubdomain(target, z.Origin) || hop >= maxCNAMEChain {
				// Chain leaves the zone; the resolver continues it.
				res.Authority = append(res.Authority, z.records[z.Origin][dnswire.TypeNS]...)
				return
			}
			cur = target
			continue
		}
		start := len(res.Answer)
		if qtype == dnswire.TypeANY {
			for _, set := range byType {
				res.Answer = append(res.Answer, set...)
			}
			rrs := res.Answer[start:]
			sort.Slice(rrs, func(i, j int) bool { return rrs[i].Type < rrs[j].Type })
		} else {
			res.Answer = append(res.Answer, byType[qtype]...)
		}
		if len(res.Answer) == start {
			// NODATA: the name exists but not with this type.
			res.Authority = z.appendNegativeLocked(res.Authority)
			return
		}
		if synthesized {
			// Wildcard answers take the query name as owner.
			for i := start; i < len(res.Answer); i++ {
				res.Answer[i].Name = cur
			}
		}
		res.Authority = append(res.Authority, z.records[z.Origin][dnswire.TypeNS]...)
		res.Additional = z.appendGlueLocked(res.Additional, res.Authority)
		return
	}
}

// wildcardLocked finds the record set of the closest covering wildcard
// for a nonexistent name, per RFC 1034 §4.3.3: try "*.<ancestor>" from
// the name's parent upward, stopping at the apex; a wildcard only applies
// when the would-be closer name does not exist.
func (z *Zone) wildcardLocked(name string) map[dnswire.Type][]dnswire.RR {
	var owner [256]byte // "*." and a name of at most 253 characters
	for anc := dnswire.Parent(name); dnswire.IsSubdomain(anc, z.Origin) && anc != "."; anc = dnswire.Parent(anc) {
		if byType := z.records[string(append(append(owner[:0], "*."...), anc...))]; byType != nil {
			return byType
		}
		// If the ancestor itself exists, the wildcard search stops: an
		// existing closer encloser without a wildcard means NXDOMAIN.
		if len(z.records[anc]) > 0 {
			return nil
		}
		if anc == z.Origin {
			break
		}
	}
	return nil
}

// cutAboveLocked finds the highest delegation point strictly between the
// apex and name (inclusive of name itself only for queries below it; a
// query *at* the cut for its NS set is still a referral per RFC 1034, and
// we treat it as such).
func (z *Zone) cutAboveLocked(name string) (cut string, ok bool) {
	if len(z.cuts) == 0 {
		return "", false
	}
	// Walk from name up to just below the apex; the last cut seen is the
	// highest.
	for cand := name; cand != z.Origin; cand = dnswire.Parent(cand) {
		if z.cuts[cand] {
			cut, ok = cand, true
		}
	}
	return cut, ok
}

// appendNegativeLocked appends the authority section of a negative
// answer, the apex SOA, to rrs.
func (z *Zone) appendNegativeLocked(rrs []dnswire.RR) []dnswire.RR {
	return append(rrs, z.records[z.Origin][dnswire.TypeSOA]...)
}

// appendGlueLocked appends to glue the in-zone A/AAAA records for the NS
// hosts in rrs.
func (z *Zone) appendGlueLocked(glue, rrs []dnswire.RR) []dnswire.RR {
	for _, rr := range rrs {
		ns, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		if byType := z.records[ns.Host]; byType != nil {
			glue = append(glue, byType[dnswire.TypeA]...)
			glue = append(glue, byType[dnswire.TypeAAAA]...)
		}
	}
	return glue
}
