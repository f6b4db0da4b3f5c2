// Package bgp models the parts of inter-domain routing that the paper's
// methodology consumes: autonomous systems with names (the "AS-to-name
// data" used to seed reference discovery, §3.3), a RIB of prefix
// announcements rebuilt per day (whose origins carry the diversion
// mechanism of §2.2), and daily Routeviews-style prefix-to-AS snapshots
// (§3.2), which pfx2as looks addresses up in.
package bgp

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders the conventional "AS12345" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Registry is the AS-to-name database.
type Registry struct {
	mu    sync.RWMutex
	names map[ASN]string
}

// NewRegistry creates an empty AS registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[ASN]string)}
}

// Register records the holder name for an ASN.
func (r *Registry) Register(asn ASN, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.names[asn] = name
}

// FindByName returns all ASNs whose holder name contains the query,
// case-insensitively — this is how the discovery procedure seeds a DPS's
// AS set from AS-to-name data.
func (r *Registry) FindByName(query string) []ASN {
	q := strings.ToLower(query)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []ASN
	for asn, name := range r.names {
		if strings.Contains(strings.ToLower(name), q) {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RIB is a routing information base: the set of currently announced
// prefixes with their origin ASes. Multi-origin (MOAS) prefixes are
// supported: a prefix announced by several origins carries all of them,
// matching the paper's footnote "For multi-origin AS we add all the
// involved AS numbers."
type RIB struct {
	mu sync.RWMutex
	// routes maps masked prefix → set of origins.
	routes map[netip.Prefix]map[ASN]bool
}

// NewRIB creates an empty RIB.
func NewRIB() *RIB {
	return &RIB{routes: make(map[netip.Prefix]map[ASN]bool)}
}

// Announce adds origin to the prefix's origin set.
func (r *RIB) Announce(p netip.Prefix, origin ASN) {
	p = p.Masked()
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.routes[p]
	if set == nil {
		set = make(map[ASN]bool)
		r.routes[p] = set
	}
	set[origin] = true
}

// Routes returns all announced prefixes with their origins, sorted by
// prefix string — the source material for a pfx2as snapshot.
func (r *RIB) Routes() []Route {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Route, 0, len(r.routes))
	for p, set := range r.routes {
		route := Route{Prefix: p}
		for asn := range set {
			route.Origins = append(route.Origins, asn)
		}
		sort.Slice(route.Origins, func(i, j int) bool { return route.Origins[i] < route.Origins[j] })
		out = append(out, route)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.String() < out[j].Prefix.String() })
	return out
}

// Route is one announced prefix and its origin set.
type Route struct {
	Prefix  netip.Prefix
	Origins []ASN
}

// Snapshot renders the RIB in the Routeviews pfx2as text format consumed
// by internal/pfx2as: "prefix<TAB>length<TAB>origins", with multi-origin
// sets joined by underscores.
func (r *RIB) Snapshot() string {
	var sb strings.Builder
	for _, route := range r.Routes() {
		parts := make([]string, len(route.Origins))
		for i, a := range route.Origins {
			parts[i] = fmt.Sprintf("%d", uint32(a))
		}
		fmt.Fprintf(&sb, "%s\t%d\t%s\n", route.Prefix.Addr(), route.Prefix.Bits(), strings.Join(parts, "_"))
	}
	return sb.String()
}
