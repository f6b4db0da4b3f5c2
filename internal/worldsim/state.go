package worldsim

import (
	"fmt"
	"net/netip"

	"dpsadopt/internal/bgp"
	"dpsadopt/internal/ipam"
	"dpsadopt/internal/simtime"
)

// DomainState is the measurement-visible DNS configuration of one domain
// on one day: exactly the records the paper's pipeline queries (apex and
// www; A, AAAA, CNAME, NS).
type DomainState struct {
	// Exists is false when the domain is not registered on this day (it
	// does not appear in the zone file).
	Exists bool
	// Unmeasurable marks a DNS outage at the domain's operator: queries
	// time out and no data point is recorded (the Sedo 2015-11-22 case).
	Unmeasurable bool
	// NSHosts are the authoritative name server host names.
	NSHosts []string
	// ApexA are the A records at the domain apex.
	ApexA []netip.Addr
	// WWWCNAME is the CNAME target of the www label ("" when www has
	// address records instead).
	WWWCNAME string
	// WWWA are the A records behind www: either direct, or the expansion
	// of WWWCNAME (which the measuring resolver observes and stores).
	WWWA []netip.Addr
	// ApexAAAA and WWWAAAA carry the IPv6 records of dual-stacked
	// domains (about one in five; operator cohorts and BGP/NS-only
	// customers stay IPv4-only, as their address space is v4).
	ApexAAAA []netip.Addr
	WWWAAAA  []netip.Addr
}

// diversion describes what (if anything) redirects a domain's traffic on
// a given day. The zero value, on false, is no diversion; it is a value,
// not a pointer, so that computing a state allocates nothing.
type diversion struct {
	on       bool
	provider int
	profile  Profile
	// providerIPs: addresses come from the provider cloud (DNS-level
	// diversion); otherwise addresses stay in operator/customer space.
	providerIPs bool
}

// StateFor returns the DNS state of domain d on the given day in a new
// DomainState: the form for a caller that keeps no state between
// domains, such as the benchmark harness's replay. The measurement loop
// fills one state per worker through StateInto.
func (w *World) StateFor(d *Domain, day simtime.Day) DomainState {
	var st DomainState
	w.StateInto(&st, d, day)
	return st
}

// StateInto computes the DNS state of domain d on the given day into st,
// reusing the backing arrays of st's address slices, so a warm state
// costs no allocation. Every field is overwritten. NSHosts aliases the
// world's host tables and must not be modified.
func (w *World) StateInto(st *DomainState, d *Domain, day simtime.Day) {
	*st = DomainState{ApexA: st.ApexA[:0], WWWA: st.WWWA[:0], ApexAAAA: st.ApexAAAA[:0], WWWAAAA: st.WWWAAAA[:0]}
	if !d.Life.Contains(day) {
		return
	}
	st.Exists = true

	var op *operatorInfra
	if d.Operator >= 0 {
		op = w.Operators[d.Operator]
		for _, outage := range op.Spec.DNSOutages {
			if outage == day {
				st.Unmeasurable = true
				return
			}
		}
	}

	div, delegatedNSOnly := w.diversionFor(d, day)

	// Name servers.
	switch {
	case div.on && div.profile == ProfileNSProxied, delegatedNSOnly.on:
		pi := w.Providers[w.nsProviderIndex(d, div, delegatedNSOnly)]
		st.NSHosts = pi.nsPair(d.hostSlot)
	case op != nil && op.Spec.NSSLD != "":
		st.NSHosts = op.NSHosts
	default:
		st.NSHosts = w.Hosters[d.Hoster].NSHosts
	}

	// Addresses.
	baseA := w.baselineAddr(d, op)
	dual := w.dualStacked(d)
	switch {
	case !div.on:
		st.ApexA = append(st.ApexA, baseA)
		if op != nil && op.Spec.BaselineCNAMESLD != "" {
			st.WWWCNAME = cnameTarget(d, op.Spec.BaselineCNAMESLD)
		}
		st.WWWA = append(st.WWWA, baseA)
		if dual {
			a6 := w.baselineAddr6(d)
			st.ApexAAAA = append(st.ApexAAAA, a6)
			st.WWWAAAA = append(st.WWWAAAA, a6)
		}
	case div.profile == ProfileBGP:
		// Records unchanged; the covering prefix's origin flips (handled
		// by RIBForDay).
		st.ApexA = append(st.ApexA, baseA)
		st.WWWA = append(st.WWWA, baseA)
		if op != nil && op.Spec.BaselineCNAMESLD != "" {
			st.WWWCNAME = cnameTarget(d, op.Spec.BaselineCNAMESLD)
		}
	case div.profile == ProfileNSOnly:
		// Delegated to the DPS, addresses stay on own hosting.
		st.ApexA = append(st.ApexA, baseA)
		st.WWWA = append(st.WWWA, baseA)
	default:
		addr := w.divertedAddr(d, div, op)
		st.ApexA = append(st.ApexA, addr)
		if div.profile == ProfileCNAME {
			spec := w.Providers[div.provider].Spec
			sld := spec.CNAMESLDs[d.hostSlot%len(spec.CNAMESLDs)]
			st.WWWCNAME = cnameTarget(d, sld)
		}
		st.WWWA = append(st.WWWA, addr)
		if dual && div.providerIPs {
			c := d.Cust
			var a6 netip.Addr
			if c != nil {
				a6 = w.Providers[div.provider].CloudAddr6(c.seq, c.cloudSlot)
			} else {
				a6 = w.Providers[div.provider].CloudAddr6(0, 2048+d.OpIdx)
			}
			st.ApexAAAA = append(st.ApexAAAA, a6)
			st.WWWAAAA = append(st.WWWAAAA, a6)
		}
	}
}

// dualStacked reports whether the domain publishes AAAA records: a
// deterministic one-in-five share of hoster-hosted domains whose
// addresses live in dual-stacked space (operator cohorts and customer
// /24s are v4-only).
func (w *World) dualStacked(d *Domain) bool {
	if d.hostSlot%5 != 0 || d.Operator >= 0 {
		return false
	}
	if c := d.Cust; c != nil && (c.Profile == ProfileBGP || c.Profile == ProfileNSOnly) {
		return false
	}
	return true
}

// baselineAddr6 is the dual-stacked domain's normal IPv6 address, in its
// hoster's v6 space.
func (w *World) baselineAddr6(d *Domain) netip.Addr {
	a, err := ipam.Nth6Addr(w.Hosters[d.Hoster].Prefix6, uint64(1<<12+d.hostSlot))
	if err != nil {
		panic(err)
	}
	return a
}

// nsProviderIndex picks the provider whose name servers host the domain.
func (w *World) nsProviderIndex(d *Domain, div, nsOnly diversion) int {
	if div.on && div.profile == ProfileNSProxied {
		return div.provider
	}
	return nsOnly.provider
}

// diversionFor returns the active traffic diversion (off when none) and,
// separately, an NS-only delegation that persists regardless of diversion
// (Verisign Managed DNS keeps the delegation even on quiet days).
func (w *World) diversionFor(d *Domain, day simtime.Day) (diversion, diversion) {
	// Direct customer first: direct subscriptions are not combined with
	// operator cohort behaviour (customers were drawn from non-operator
	// domains).
	if c := d.Cust; c != nil {
		if c.Profile == ProfileNSOnly {
			if c.Sub.Contains(day) {
				return diversion{}, diversion{on: true, provider: c.Provider, profile: ProfileNSOnly}
			}
			return diversion{}, diversion{}
		}
		if c.ActiveOn(day) {
			return diversion{on: true, provider: c.Provider, profile: c.Profile, providerIPs: true}, diversion{}
		}
		return diversion{}, diversion{}
	}
	if d.Operator < 0 {
		return diversion{}, diversion{}
	}
	op := w.Operators[d.Operator]
	spec := op.Spec
	// Scripted cohort episodes override the standing relationship.
	for i := range spec.Episodes {
		ep := &spec.Episodes[i]
		if !ep.Window.Contains(day) || d.OpIdx >= w.Cfg.scaled(ep.CohortSize) {
			continue
		}
		if ep.Provider < 0 {
			return diversion{}, diversion{} // relationship terminated (Fabulous)
		}
		return diversion{on: true, provider: ep.Provider, profile: ep.Profile, providerIPs: episodeUsesProviderIPs(d.Operator, i)}, diversion{}
	}
	if spec.AlwaysProvider >= 0 && d.OpIdx < w.alwaysCohortSize(op) {
		return diversion{on: true, provider: spec.AlwaysProvider, profile: spec.AlwaysProfile, providerIPs: spec.AlwaysProfile != ProfileBGP}, diversion{}
	}
	return diversion{}, diversion{}
}

// alwaysCohortSize returns the scaled number of cohort domains in the
// operator's standing provider relationship.
func (w *World) alwaysCohortSize(op *operatorInfra) int {
	n := op.Spec.AlwaysCohort
	if n == 0 {
		n = op.Spec.Domains
	}
	s := w.Cfg.scaled(n)
	if s > op.cohort {
		s = op.cohort
	}
	return s
}

// episodeUsesProviderIPs: Wix-style episodes answer addresses in operator-
// owned space that the provider announces; Namecheap/SiteMatrix-style
// episodes answer provider-owned addresses.
func episodeUsesProviderIPs(opIdx, epIdx int) bool {
	switch opIdx {
	case OpWix, OpWixF5:
		return false
	default:
		return true
	}
}

// baselineAddr is the domain's normal address.
func (w *World) baselineAddr(d *Domain, op *operatorInfra) netip.Addr {
	if c := d.Cust; c != nil && c.Profile == ProfileBGP && c.bgpPrefix.IsValid() {
		return mustNth(c.bgpPrefix, uint64(d.hostSlot)%ipam.HostCount(c.bgpPrefix))
	}
	if op != nil {
		if op.Spec.BaselineAS != nil {
			return mustNth(op.BaselineBlock, uint64(d.OpIdx)%ipam.HostCount(op.BaselineBlock))
		}
		// Operator cohort addresses live in the divert block so BGP
		// episodes cover exactly the cohort prefix range.
		return mustNth(op.DivertBlock, uint64(d.OpIdx)%ipam.HostCount(op.DivertBlock))
	}
	return mustNth(w.Hosters[d.Hoster].Prefix, uint64(1<<10+d.hostSlot))
}

// divertedAddr is the address answered while a DNS-level diversion is
// active.
func (w *World) divertedAddr(d *Domain, div diversion, op *operatorInfra) netip.Addr {
	if div.providerIPs || op == nil {
		p := w.Providers[div.provider]
		if c := d.Cust; c != nil {
			return p.CloudAddr(c.seq, c.cloudSlot)
		}
		// Operator cohorts land in the provider's primary cloud (the
		// service they bought fronts there), keeping the provider's
		// secondary ASes cohesive for reference discovery.
		return p.CloudAddrAt(0, 2048+d.OpIdx)
	}
	// Operator-owned divert space (announced by the provider today).
	return mustNth(op.DivertBlock, uint64(d.OpIdx)%ipam.HostCount(op.DivertBlock))
}

func mustNth(p netip.Prefix, n uint64) netip.Addr {
	a, err := ipam.NthAddr(p, n)
	if err != nil {
		panic(err)
	}
	return a
}

// cnameTarget derives the customer-specific canonical name under sld.
func cnameTarget(d *Domain, sld string) string {
	label := d.Name
	if i := indexByte(label, '.'); i >= 0 {
		label = label[:i]
	}
	return label + "." + sld
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// nsPair selects two of the provider's NS hosts deterministically by
// slot: the slot's host and the next one, wrapping round.
func (p *providerInfra) nsPair(slot int) []string {
	n := len(p.NSHosts)
	if n <= 2 {
		return p.NSHosts
	}
	i := slot % n
	return p.nsRing[i : i+2 : i+2]
}

// RIBForDay builds the day's routing table: static infrastructure routes
// plus the dynamic announcements implementing BGP-based diversion.
func (w *World) RIBForDay(day simtime.Day) *bgp.RIB {
	rib := bgp.NewRIB()
	for _, r := range w.staticRoutes {
		for _, o := range r.Origins {
			rib.Announce(r.Prefix, o)
		}
	}
	// Operator divert blocks: per-day origin per cohort slice.
	for i, op := range w.Operators {
		w.announceOperatorBlock(rib, i, op, day)
	}
	// Direct BGP customers: the provider announces the customer /24
	// while diverting; otherwise the customer's hoster-of-record
	// announces it (the covering route).
	for _, d := range w.Domains {
		c := d.Cust
		if c == nil || c.Profile != ProfileBGP || !c.bgpPrefix.IsValid() {
			continue
		}
		if !d.Life.Contains(day) {
			continue
		}
		if c.ActiveOn(day) {
			rib.Announce(c.bgpPrefix, w.Providers[c.Provider].DivertASN(c.seq))
		} else {
			rib.Announce(c.bgpPrefix, w.Hosters[d.Hoster].Spec.AS.ASN)
		}
	}
	return rib
}

// announceOperatorBlock emits the divert-block announcements for one
// operator on one day: episode slices go to the episode's provider, the
// standing provider (if any) covers the rest, and the operator's own AS
// originates whatever remains.
func (w *World) announceOperatorBlock(rib *bgp.RIB, opIdx int, op *operatorInfra, day simtime.Day) {
	if op.cohort == 0 {
		return
	}
	spec := op.Spec
	// Determine, per cohort index range, today's origin. Episode windows
	// can overlap only in the Fabulous sense (termination); first match
	// wins, mirroring diversionFor.
	type slice struct {
		upto   int // exclusive cohort index bound
		origin bgp.ASN
	}
	ownOrigin := spec.AS.ASN
	alwaysOrigin := ownOrigin
	alwaysN := 0
	if spec.AlwaysProvider >= 0 {
		alwaysOrigin = w.Providers[spec.AlwaysProvider].Spec.ASes[spec.AlwaysASIdx].ASN
		alwaysN = w.alwaysCohortSize(op)
	}
	var cuts []slice
	for i := range spec.Episodes {
		ep := &spec.Episodes[i]
		if !ep.Window.Contains(day) {
			continue
		}
		n := w.Cfg.scaled(ep.CohortSize)
		if n > op.cohort {
			n = op.cohort
		}
		var origin bgp.ASN
		switch {
		case ep.Provider < 0:
			origin = spec.AS.ASN // relationship ended: back to own AS
		case ep.Profile == ProfileBGP || !episodeUsesProviderIPs(opIdx, i):
			origin = w.Providers[ep.Provider].Spec.ASes[0].ASN
		default:
			// DNS-level episode into provider IP space: the divert block
			// keeps its default origin.
			continue
		}
		cuts = append(cuts, slice{upto: n, origin: origin})
	}
	// Announce per-address-range blocks. The first matching episode wins
	// for overlapping ranges, so apply cuts in order, tracking covered
	// bound; the standing relationship then covers up to alwaysN, and the
	// operator's own AS originates the rest.
	covered := 0
	for _, c := range cuts {
		if c.upto <= covered {
			continue
		}
		announceRange(rib, op.DivertBlock, covered, c.upto, c.origin)
		covered = c.upto
	}
	if covered < alwaysN {
		announceRange(rib, op.DivertBlock, covered, alwaysN, alwaysOrigin)
		covered = alwaysN
	}
	if covered < int(ipam.HostCount(op.DivertBlock)) {
		announceRange(rib, op.DivertBlock, covered, int(ipam.HostCount(op.DivertBlock)), ownOrigin)
	}
}

// announceRange announces the address range [from, to) of block as a
// minimal set of CIDR prefixes originated by asn.
func announceRange(rib *bgp.RIB, block netip.Prefix, from, to int, asn bgp.ASN) {
	for from < to {
		// Largest power-of-two block aligned at 'from' and fitting.
		size := 1
		for from%(size*2) == 0 && from+size*2 <= to {
			size *= 2
		}
		base := mustNth(block, uint64(from))
		bits := ipam.MaskBitsFor(uint64(size))
		rib.Announce(netip.PrefixFrom(base, bits), asn)
		from += size
	}
}

// Stats summarises the generated world for logging and Table 1.
type Stats struct {
	DomainsTotal int
	ByTLD        map[string]int
	Customers    int
	OnDemand     int
}

// Stats computes summary counts.
func (w *World) Stats() Stats {
	s := Stats{ByTLD: make(map[string]int)}
	for _, d := range w.Domains {
		s.DomainsTotal++
		s.ByTLD[d.TLD]++
		if d.Cust != nil {
			s.Customers++
			if d.Cust.OnDemand {
				s.OnDemand++
			}
		}
	}
	return s
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("domains=%d com=%d net=%d org=%d nl=%d customers=%d ondemand=%d",
		s.DomainsTotal, s.ByTLD["com"], s.ByTLD["net"], s.ByTLD["org"], s.ByTLD["nl"], s.Customers, s.OnDemand)
}
