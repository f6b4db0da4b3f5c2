package core

import (
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// BaselineDetections is the result of DetectDayBaseline: the original
// string-keyed representation, kept as the reference the ID-native
// engine is cross-checked against.
type BaselineDetections struct {
	Source string
	Day    simtime.Day
	// Uses[p] maps domain name → reference methods toward provider p.
	Uses []map[string]Method
	// DomainsMeasured counts domain-run transitions — exact only while
	// every domain's rows are contiguous (the historical approximation;
	// DetectDay counts the ID set and is exact unconditionally).
	DomainsMeasured int
}

// DetectDayBaseline is the pre-ID-engine detection pass, string-keyed
// and one Dict.Str materialization per row. Retained verbatim so tests
// can demand DetectDay produce identical counts.
func DetectDayBaseline(s *store.Store, source string, day simtime.Day, refs *References) *BaselineDetections {
	d := &BaselineDetections{
		Source: source,
		Day:    day,
		Uses:   make([]map[string]Method, refs.NumProviders()),
	}
	for i := range d.Uses {
		d.Uses[i] = make(map[string]Method)
	}
	var lastDomain string
	s.ForEachRow(source, day, func(r store.Row) {
		if r.Domain != lastDomain {
			d.DomainsMeasured++
			lastDomain = r.Domain
		}
		switch r.Kind {
		case store.KindApexA, store.KindApexAAAA, store.KindWWWA, store.KindWWWAAAA:
			for _, asn := range r.ASNs {
				if p, ok := refs.MatchASN(asn); ok {
					d.Uses[p][r.Domain] |= RefAS
				}
			}
		case store.KindWWWCNAME:
			if p, ok := refs.byCNAME[SLD(r.Str)]; ok {
				d.Uses[p][r.Domain] |= RefCNAME
			}
		case store.KindNS:
			if p, ok := refs.byNS[SLD(r.Str)]; ok {
				d.Uses[p][r.Domain] |= RefNS
			}
		}
	})
	return d
}

// CountAny returns the number of domains using at least one provider
// (allocating a fresh union set per call, as the baseline always did).
func (d *BaselineDetections) CountAny() int {
	seen := make(map[string]bool)
	for _, uses := range d.Uses {
		for dom := range uses {
			seen[dom] = true
		}
	}
	return len(seen)
}
