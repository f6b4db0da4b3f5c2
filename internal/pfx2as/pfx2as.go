// Package pfx2as implements the Routeviews Prefix-to-AS mapping used to
// supplement every measured IP address with its origin AS (paper §3.2):
// "The origin AS of the most-specific prefix in which an address was
// contained at measurement time is determined on the basis of the
// Routeviews Prefix-to-AS mappings (pfx2as) data set."
//
// Walk is the one lookup structure: the IPv4 prefixes flattened into
// disjoint intervals, so a lookup is one binary search.
package pfx2as

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"
)

// Origins is the origin-AS set of a prefix; multi-origin (MOAS) prefixes
// carry more than one entry.
type Origins []uint32

// Entry is one mapping line: a prefix and its origin set.
type Entry struct {
	Prefix  netip.Prefix
	Origins Origins
}

// Table answers most-specific-prefix origin lookups.
type Table interface {
	// Lookup returns the origin set of the most specific prefix
	// containing addr, with ok=false when uncovered.
	Lookup(addr netip.Addr) (Origins, bool)
	// Len returns the number of entries.
	Len() int
}

// Parse reads the Routeviews pfx2as text format: three tab-separated
// fields per line — prefix address, prefix length, origin ASNs joined by
// '_' (MOAS) or ',' (AS sets); both separators are accepted and merged.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("pfx2as: line %d: %d fields", line, len(fields))
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pfx2as: line %d: %w", line, err)
		}
		bits, err := strconv.Atoi(fields[1])
		if err != nil || bits < 0 || bits > addr.BitLen() {
			return nil, fmt.Errorf("pfx2as: line %d: bad length %q", line, fields[1])
		}
		var origins Origins
		for _, part := range strings.FieldsFunc(fields[2], func(r rune) bool { return r == '_' || r == ',' }) {
			asn, err := strconv.ParseUint(part, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("pfx2as: line %d: bad ASN %q", line, part)
			}
			origins = append(origins, uint32(asn))
		}
		if len(origins) == 0 {
			return nil, fmt.Errorf("pfx2as: line %d: no origins", line)
		}
		out = append(out, Entry{Prefix: netip.PrefixFrom(addr, bits).Masked(), Origins: origins})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// FromSnapshot builds the lookup table of one snapshot in the text format
// Parse reads — the one way a measurement day, a query or an example
// turns the day's routing data into origin lookups.
func FromSnapshot(snapshot string) (*Walk, error) {
	entries, err := Parse(strings.NewReader(snapshot))
	if err != nil {
		return nil, err
	}
	return NewWalk(entries), nil
}

// Walk is the Table implementation. The IPv4 prefixes are flattened into
// disjoint segments: segment i spans starts[i] up to starts[i+1]-1 (the
// last one up to 255.255.255.255) and maps to origins[i], the origin set
// of the most specific prefix covering it, nil where no prefix does. IPv6
// entries stay keyed by prefix and a lookup probes only the lengths
// present, most specific first.
type Walk struct {
	starts  []uint32
	origins []Origins
	v6      map[netip.Prefix]Origins
	lens6   [129]bool
	n       int
}

// span4 is one IPv4 prefix as an inclusive address range.
type span4 struct {
	start, end uint32
	origins    Origins
}

// NewWalk builds a Walk table from entries; later duplicates of the same
// prefix replace earlier ones.
func NewWalk(entries []Entry) *Walk {
	w := &Walk{v6: make(map[netip.Prefix]Origins)}
	spans := make([]span4, 0, len(entries))
	for _, e := range entries {
		o := e.Origins
		if o == nil {
			o = Origins{} // nil marks a gap; a prefix without origins still covers
		}
		p := e.Prefix.Masked()
		if !p.Addr().Is4() {
			w.v6[p] = o
			w.lens6[p.Bits()] = true
			continue
		}
		start := addr4(p.Addr())
		spans = append(spans, span4{start, start | ^uint32(0)>>p.Bits(), o})
	}
	// Parents sort before their children; the stable sort keeps duplicates
	// in input order, so the last of a run is the one that counts.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	w.starts, w.origins = []uint32{0}, []Origins{nil}
	// emit opens a segment at start; a segment opened at the same address
	// before it (a parent, a closed sibling's tail, a duplicate) is empty.
	emit := func(start uint32, o Origins) {
		if last := len(w.starts) - 1; w.starts[last] == start {
			w.origins[last] = o
			return
		}
		w.starts = append(w.starts, start)
		w.origins = append(w.origins, o)
	}
	// open holds the prefixes covering the sweep position, outermost
	// first. Closing one re-exposes its parent (or the gap) after its end.
	var open []span4
	closeUntil := func(next uint64) {
		for len(open) > 0 && uint64(open[len(open)-1].end) < next {
			end := open[len(open)-1].end
			open = open[:len(open)-1]
			if end == ^uint32(0) {
				continue
			}
			var o Origins
			if len(open) > 0 {
				o = open[len(open)-1].origins
			}
			emit(end+1, o)
		}
	}
	for i, sp := range spans {
		if i+1 < len(spans) && spans[i+1].start == sp.start && spans[i+1].end == sp.end {
			continue
		}
		w.n++
		closeUntil(uint64(sp.start))
		emit(sp.start, sp.origins)
		open = append(open, sp)
	}
	closeUntil(1 << 32)
	w.n += len(w.v6)
	return w
}

// Lookup implements Table.
func (w *Walk) Lookup(addr netip.Addr) (Origins, bool) {
	if addr.Is4() {
		v := addr4(addr)
		// The last segment starting at or before v; starts[0] is 0.
		lo, hi := 1, len(w.starts)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if w.starts[mid] <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		o := w.origins[lo-1]
		return o, o != nil
	}
	for bits := 128; bits >= 0; bits-- {
		if !w.lens6[bits] {
			continue
		}
		p, err := addr.Prefix(bits)
		if err != nil {
			continue
		}
		if o, ok := w.v6[p]; ok {
			return o, true
		}
	}
	return nil, false
}

// Len implements Table.
func (w *Walk) Len() int { return w.n }

func addr4(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}
