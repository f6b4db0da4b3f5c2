package core

import (
	"slices"
	"time"

	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// DayDetections holds, for one (source, day) partition, every domain that
// references every provider, with the combination of reference kinds —
// the raw material for all the figures. Use is counted at the domain's
// second level: multiple references of the same kind collapse into one
// (§4.1 footnote).
//
// The engine is ID-native: domains stay dictionary IDs end to end, packed
// as one uint64 per detected (provider, domain) pair. String views
// (Uses, MergeAny, DomainName) materialize through the store dictionary
// only at the report/API edge. A DayDetections is immutable after
// DetectDay returns and safe for concurrent readers.
type DayDetections struct {
	Source string
	Day    simtime.Day
	// DomainsMeasured counts distinct domains with any stored row,
	// computed from the domain-ID column during the scan — exact even
	// when a domain's rows interleave across writer commits.
	DomainsMeasured int
	// Rows is the number of rows scanned.
	Rows int

	dict *store.Dict
	// packed holds one entry per detected (provider, domain) pair:
	// provider<<40 | domainID<<8 | methods, sorted ascending and
	// deduplicated, so provider p's detections are the contiguous span
	// packed[off[p]:off[p+1]] in ascending domain-ID order.
	packed []uint64
	off    []int32
	// anyCount is the distinct-domain union over all providers (§4.1's
	// "using at least one provider"), computed once at build so per-day
	// figure code never re-derives the set.
	anyCount int
}

func packUse(p int, id uint32, m Method) uint64 {
	return uint64(p)<<40 | uint64(id)<<8 | uint64(m)
}

// BatchSource is where detection reads its columnar partitions from:
// either a fully resident *store.Store or a streaming *store.Reader.
// AcquireBatch hands out one partition's columns plus a release func
// (a no-op for the resident store; for the Reader it returns the decoded
// columns to the store's free list) — the batch is valid only until
// release, and a resident store's only until the partition is dropped.
// Missing partitions may surface as an empty batch (resident store) or
// an error (Reader, which knows its directory); corrupt partitions are
// always errors.
type BatchSource interface {
	SharedDict() (*store.Dict, error)
	AcquireBatch(source string, day simtime.Day) (store.RowBatch, func(), error)
}

// DetectDay scans one partition and classifies every row against the
// reference table, entirely in dictionary-ID space: ASN hits via the
// reference index, CNAME/NS hits via the per-dictionary SLD→provider
// cache (References.ForDict), no per-row string materialization.
func DetectDay(s *store.Store, source string, day simtime.Day, refs *References) *DayDetections {
	d, _, _, _ := detectSourceStaged(s, source, day, refs)
	return d
}

// DetectPartition is DetectDay over any BatchSource — the unit of
// streaming detection. Unlike DetectDay it can fail: a Reader surfaces
// missing or corrupt partitions as errors instead of silent empties.
func DetectPartition(src BatchSource, source string, day simtime.Day, refs *References) (*DayDetections, error) {
	d, _, _, err := detectSourceStaged(src, source, day, refs)
	return d, err
}

// detectSourceStaged is DetectPartition with per-stage wall timing: scan
// is the row classification loop (batch-scan), which also counts the
// distinct measured domains while the domain column is in hand; merge is
// finalize's sort / dedup / distinct-count pass (hit-merge). DetectRange
// feeds these into the detect_stage_seconds histograms; the two time.Now
// pairs are noise next to a partition's work.
func detectSourceStaged(src BatchSource, source string, day simtime.Day, refs *References) (d *DayDetections, scan, merge time.Duration, err error) {
	dict, err := src.SharedDict()
	if err != nil {
		return nil, 0, 0, err
	}
	np := refs.NumProviders()
	d = &DayDetections{Source: source, Day: day, dict: dict}
	b, release, err := src.AcquireBatch(source, day)
	if err != nil {
		return nil, 0, 0, err
	}
	defer release()
	n := b.Rows()
	if n == 0 {
		d.off = make([]int32, np+1)
		return d, 0, 0, nil
	}
	t0 := time.Now()
	d.Rows = n
	ids := refs.ForDict(d.dict)
	packed := make([]uint64, 0, 1024)
	// Distinct counts via a dict-sized bitset: no hashing. Dict IDs are
	// dense, so the bitset is dictLen/8 bytes; finalize reuses it.
	seen := make([]uint64, (dict.Len()+63)/64)
	prev := store.NoStr
	for i := 0; i < n; i++ {
		dom := b.Domains[i]
		if dom != prev { // skip the common contiguous-run repeats cheaply
			prev = dom
			if wd, bit := dom>>6, uint64(1)<<(dom&63); seen[wd]&bit == 0 {
				seen[wd] |= bit
				d.DomainsMeasured++
			}
		}
		switch b.Kinds[i] {
		case store.KindWWWCNAME:
			if p, ok := ids.MatchCNAMEID(b.Strs[i]); ok {
				packed = append(packed, packUse(p, dom, RefCNAME))
			}
		case store.KindNS:
			if p, ok := ids.MatchNSID(b.Strs[i]); ok {
				packed = append(packed, packUse(p, dom, RefNS))
			}
		default: // address kinds
			for _, asn := range b.ASNs(i) {
				if p, ok := refs.MatchASN(asn); ok {
					packed = append(packed, packUse(p, dom, RefAS))
				}
			}
		}
	}
	t1 := time.Now()
	d.finalize(packed, np, seen)
	return d, t1.Sub(t0), time.Since(t1), nil
}

// finalize sorts and dedups the packed hits, builds the per-provider
// offsets, and counts the distinct detected domains in seen, the scan's
// dict-sized bitset (cleared here first).
func (d *DayDetections) finalize(packed []uint64, np int, seen []uint64) {
	slices.Sort(packed)
	// Merge entries of the same (provider, domain), OR-ing the method
	// bits; equal pairs are adjacent after the sort.
	w := 0
	for r := 0; r < len(packed); {
		key := packed[r] &^ 0xff
		m := packed[r]
		for r++; r < len(packed) && packed[r]&^0xff == key; r++ {
			m |= packed[r]
		}
		packed[w] = key | m&0xff
		w++
	}
	d.packed = packed[:w]
	d.off = make([]int32, np+1)
	for _, v := range d.packed {
		d.off[int(v>>40)+1]++
	}
	for p := 0; p < np; p++ {
		d.off[p+1] += d.off[p]
	}
	clear(seen)
	for _, v := range d.packed {
		id := uint32(v >> 8)
		if wd, bit := id>>6, uint64(1)<<(id&63); seen[wd]&bit == 0 {
			seen[wd] |= bit
			d.anyCount++
		}
	}
}

// span returns provider p's packed detections.
func (d *DayDetections) span(p int) []uint64 { return d.packed[d.off[p]:d.off[p+1]] }

// NumProviders returns the provider count the detections were built for.
func (d *DayDetections) NumProviders() int { return len(d.off) - 1 }

// Count returns the number of domains using provider p by any reference.
func (d *DayDetections) Count(p int) int { return int(d.off[p+1] - d.off[p]) }

// CountAny returns the number of domains using at least one provider
// (precomputed at build; repeated calls are free).
func (d *DayDetections) CountAny() int { return d.anyCount }

// EachUse calls fn for every (domain ID, methods) pair toward provider
// p, in ascending domain-ID order. Resolve IDs with DomainName.
func (d *DayDetections) EachUse(p int, fn func(id uint32, m Method)) {
	for _, v := range d.span(p) {
		fn(uint32(v>>8), Method(v))
	}
}

// DomainName resolves a domain ID from EachUse against the store
// dictionary the detections were built over.
func (d *DayDetections) DomainName(id uint32) string { return d.dict.Str(id) }

// MergeAny folds the per-provider detections into dst: domain → union of
// methods over a set of detections (used to combine sources).
func (d *DayDetections) MergeAny(p int, dst map[string]Method) {
	d.EachUse(p, func(id uint32, m Method) { dst[d.dict.Str(id)] |= m })
}

// MergeAnyID is MergeAny in dictionary-ID space, for consumers sharing
// the detections' store dictionary.
func (d *DayDetections) MergeAnyID(p int, dst map[uint32]Method) {
	d.EachUse(p, func(id uint32, m Method) { dst[id] |= m })
}
