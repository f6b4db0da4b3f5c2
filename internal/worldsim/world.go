package worldsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"

	"dpsadopt/internal/bgp"
	"dpsadopt/internal/ipam"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/zones"
)

// Config sizes the synthetic world. All *paper-scale* magnitudes (namespace
// sizes, cohort sizes, customer counts) are divided by Scale.
type Config struct {
	Seed  int64
	Scale int // divisor; 1000 reproduces the paper at 1:1000
	// Window is the gTLD measurement interval (the paper's 550 days).
	Window simtime.Range
	// NLWindow is the .nl / Alexa interval (the paper's final 184 days).
	NLWindow simtime.Range
	// GTLDStart/GTLDEnd are combined .com+.net+.org active-domain counts
	// (paper scale).
	GTLDStart, GTLDEnd int
	// NLStart/NLEnd are .nl counts (paper scale).
	NLStart, NLEnd int
	// AlexaSize is the popularity-list length (paper scale).
	AlexaSize int
	// ChurnPerDay is the namespace registration churn fraction.
	ChurnPerDay float64
}

// DefaultConfig reproduces the paper's data set at the given scale
// divisor (1000 recommended; tests use coarser scales).
func DefaultConfig(scale int) Config {
	return Config{
		Seed:        2016,
		Scale:       scale,
		Window:      simtime.Range{Start: 0, End: 550},                                         // 2015-03-01 .. 2016-09-01
		NLWindow:    simtime.Range{Start: simtime.FromDate(2016, 3, 1), End: simtime.Day(550)}, // 184 days
		GTLDStart:   140_000_000,
		GTLDEnd:     152_200_000,
		NLStart:     5_620_000,
		NLEnd:       5_721_000, // 1.8% expansion
		AlexaSize:   1_000_000,
		ChurnPerDay: 0.0002,
	}
}

// TLD shares of the gTLD namespace (Fig 4, left).
var gtldShare = map[string]float64{"com": 0.8247, "net": 0.1033, "org": 0.0721}

// DPS-use shares per gTLD (Fig 4, right) used to weight customer
// assignment.
var dpsShare = map[string]float64{"com": 0.8571, "net": 0.0822, "org": 0.0607}

// Customer is a direct DPS subscription attached to a domain.
type Customer struct {
	Provider int
	Profile  Profile
	// Sub is the subscription window; for always-on customers diversion
	// is active throughout it.
	Sub simtime.Range
	// OnDemand marks customers that divert only during Peaks.
	OnDemand bool
	// Peaks are the diversion episodes of on-demand customers.
	Peaks []simtime.Range
	// bgpPrefix is the customer's own /24, announced by the provider
	// while diverting (ProfileBGP only).
	bgpPrefix netip.Prefix
	// cloudSlot picks the customer's DPS-assigned address offset.
	cloudSlot int
	// seq is the customer's per-provider sequence number; it spreads
	// customers round-robin over the provider's ASes.
	seq int
}

// ActiveOn reports whether the customer diverts traffic on day (for
// ProfileNSOnly this means "is delegated", not "diverts").
func (c *Customer) ActiveOn(day simtime.Day) bool {
	if !c.Sub.Contains(day) {
		return false
	}
	if !c.OnDemand {
		return true
	}
	for _, p := range c.Peaks {
		if p.Contains(day) {
			return true
		}
	}
	return false
}

// Domain is one second-level domain in the simulated namespace.
type Domain struct {
	Name string
	TLD  string
	Life simtime.Range
	// Hoster indexes GenericHosters for baseline DNS/hosting.
	Hoster int
	// Operator is -1 or an index into OperatorSpecs; operator-controlled
	// domains take their DNS from the operator.
	Operator int
	// OpIdx is the domain's index within its operator cohort; episodes
	// affect OpIdx < scaled cohort size.
	OpIdx int
	// Cust is non-nil for direct DPS customers.
	Cust *Customer
	// hostSlot picks the domain's baseline address within its hoster or
	// operator block.
	hostSlot int
}

// providerInfra is the runtime network footprint of one DPS.
type providerInfra struct {
	Spec      *ProviderSpec
	Prefixes  []netip.Prefix // one per AS, announced by that AS
	Prefixes6 []netip.Prefix // IPv6 counterparts, same origin ASes
	// NSHosts are authoritative server host names (full names, within
	// the provider's NS SLDs).
	NSHosts []string
	NSAddrs []netip.Addr
	// clouds are the customer-facing address blocks, one per AS, so that
	// every provider AS is referenced by customer addresses (the paper's
	// Table 2 lists them all).
	clouds []netip.Prefix
}

// CloudAddr6 returns the seq-th customer's IPv6 cloud address.
func (p *providerInfra) CloudAddr6(seq, slot int) netip.Addr {
	pref := p.Prefixes6[seq%len(p.Prefixes6)]
	a, err := ipam.Nth6Addr(pref, uint64(0x1000+slot))
	if err != nil {
		panic(err)
	}
	return a
}

// CloudAddrAt returns the slot-th customer-facing address within the
// prefixIdx-th AS's cloud block.
func (p *providerInfra) CloudAddrAt(prefixIdx, slot int) netip.Addr {
	cloud := p.clouds[prefixIdx%len(p.clouds)]
	a, err := ipam.NthAddr(cloud, uint64(slot)%ipam.HostCount(cloud))
	if err != nil {
		panic(err)
	}
	return a
}

// CloudAddr returns the seq-th customer's cloud address: customers are
// spread round-robin over the provider's ASes so that every Table 2 AS
// is referenced by customer addresses.
func (p *providerInfra) CloudAddr(seq, slot int) netip.Addr {
	return p.CloudAddrAt(seq, slot)
}

// DivertASN returns the AS that announces the seq-th customer's /24
// while BGP diversion is active.
func (p *providerInfra) DivertASN(seq int) bgp.ASN {
	return p.Spec.ASes[seq%len(p.Spec.ASes)].ASN
}

// operatorInfra is the runtime footprint of a third party.
type operatorInfra struct {
	Spec *OperatorSpec
	// Prefix is the operator's own address space.
	Prefix netip.Prefix
	// DivertBlock holds cohort domain addresses (OpIdx-th address);
	// sub-ranges of it flip origin during BGP episodes.
	DivertBlock netip.Prefix
	// BaselineBlock holds baseline addresses when BaselineAS is set
	// (Wix's AWS block).
	BaselineBlock netip.Prefix
	NSHosts       []string
	NSAddrs       []netip.Addr
	cohort        int // scaled cohort size actually assigned
}

type hosterInfra struct {
	Spec    *GenericHoster
	Prefix  netip.Prefix
	Prefix6 netip.Prefix
	NSHosts []string
	NSAddrs []netip.Addr
}

// World is the fully generated simulation.
type World struct {
	Cfg       Config
	Registry  *bgp.Registry
	Providers [NumProviders]*providerInfra
	Operators [NumOperators]*operatorInfra
	Hosters   []*hosterInfra

	// TLDs maps "com"/"net"/"org"/"nl" to their namespace models.
	TLDs map[string]*zones.TLD
	// Domains holds every domain across all TLDs, in TLD-then-index
	// order. Parallel to the zones.TLD domain lists.
	Domains []*Domain
	byName  map[string]*Domain

	// infraApex maps infrastructure SLDs (provider/operator/hoster
	// service domains like cloudflare.com or sedoparking.com) to their
	// apex addresses, for the discovery procedure's active probes.
	infraApex map[string]netip.Addr

	// alexaCore and alexaPool implement the rotating popularity list.
	alexaCore []int // domain indices always on the list
	alexaPool []int // candidates for the rotating tail
	alexaTail int   // tail slots per day

	staticRoutes []bgp.Route
}

// scaled divides a paper-scale count by the configured scale, rounding to
// nearest with a minimum of 1 for positive inputs.
func (cfg Config) scaled(n int) int {
	if n <= 0 {
		return 0
	}
	v := (n + cfg.Scale/2) / cfg.Scale
	if v < 1 {
		v = 1
	}
	return v
}

// New generates a world. Generation is deterministic in cfg.Seed.
func New(cfg Config) (*World, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("worldsim: scale must be positive")
	}
	if cfg.Window.Len() == 0 {
		return nil, fmt.Errorf("worldsim: empty window")
	}
	w := &World{
		Cfg:       cfg,
		Registry:  bgp.NewRegistry(),
		TLDs:      make(map[string]*zones.TLD),
		byName:    make(map[string]*Domain),
		infraApex: make(map[string]netip.Addr),
	}
	w.buildInfra()
	if err := w.buildNamespaces(); err != nil {
		return nil, err
	}
	w.assignOperatorCohorts()
	w.assignCustomers()
	w.buildAlexa()
	return w, nil
}

// buildInfra allocates prefixes, NS hosts, and registry entries.
func (w *World) buildInfra() {
	provPool := ipam.MustPool("10.0.0.0/8")
	opPool := ipam.MustPool("172.16.0.0/12")
	hostPool := ipam.MustPool("100.64.0.0/10")
	// IPv6: providers and hosters are dual-stacked; /48s carved from the
	// documentation space, announced by the same origin ASes.
	provPool6 := ipam.MustPool6("2001:db8::/32")
	hostPool6 := ipam.MustPool6("2001:db8:8000::/33")

	cfNames := []string{"kate", "mike", "anna", "carl", "dana", "finn", "gina", "hugo"}
	for i := range ProviderSpecs {
		spec := &ProviderSpecs[i]
		infra := &providerInfra{Spec: spec}
		for _, as := range spec.ASes {
			w.Registry.Register(as.ASN, as.Name)
			p, err := provPool.AllocSubnet(16)
			if err != nil {
				panic(err)
			}
			infra.Prefixes = append(infra.Prefixes, p)
			w.staticRoutes = append(w.staticRoutes, bgp.Route{Prefix: p, Origins: []bgp.ASN{as.ASN}})
			p6, err := provPool6.AllocSubnet(48)
			if err != nil {
				panic(err)
			}
			infra.Prefixes6 = append(infra.Prefixes6, p6)
			w.staticRoutes = append(w.staticRoutes, bgp.Route{Prefix: p6, Origins: []bgp.ASN{as.ASN}})
		}
		// Cloud blocks: the second /20 of each AS prefix (the first /20
		// carries name-server and infrastructure addresses).
		for _, p := range infra.Prefixes {
			base, err := ipam.NthSubnet(p, 20, 1)
			if err != nil {
				panic(err)
			}
			infra.clouds = append(infra.clouds, base)
		}
		// NS hosts: CloudFlare gets its famous person-named servers; the
		// rest get ns1/ns2 per SLD.
		if i == CloudFlare {
			for _, n := range cfNames {
				infra.NSHosts = append(infra.NSHosts, n+".ns.cloudflare.com")
			}
		} else {
			for _, sld := range spec.NSSLDs {
				infra.NSHosts = append(infra.NSHosts, "ns1."+sld, "ns2."+sld)
			}
		}
		for j := range infra.NSHosts {
			a, err := ipam.NthAddr(infra.Prefixes[0], uint64(4096+j))
			if err != nil {
				panic(err)
			}
			infra.NSAddrs = append(infra.NSAddrs, a)
		}
		// The provider's service SLDs answer from its own space — the
		// signal the discovery procedure's probe step uses.
		for _, sld := range spec.NSSLDs {
			w.infraApex[sld] = infra.NSAddrs[0]
		}
		for k, sld := range spec.CNAMESLDs {
			a, err := ipam.NthAddr(infra.Prefixes[0], uint64(4200+k))
			if err != nil {
				panic(err)
			}
			w.infraApex[sld] = a
		}
		w.Providers[i] = infra
	}

	for i := range OperatorSpecs {
		spec := &OperatorSpecs[i]
		infra := &operatorInfra{Spec: spec}
		w.Registry.Register(spec.AS.ASN, spec.AS.Name)
		p, err := opPool.AllocSubnet(16)
		if err != nil {
			panic(err)
		}
		infra.Prefix = p
		w.staticRoutes = append(w.staticRoutes, bgp.Route{Prefix: p, Origins: []bgp.ASN{spec.AS.ASN}})
		// Divert block: /18 inside the operator's own space... except it
		// must be origin-flippable independently, so it is a separate
		// prefix NOT statically announced; covering announcements are
		// emitted per day by RIBForDay.
		db, err := opPool.AllocSubnet(18)
		if err != nil {
			panic(err)
		}
		infra.DivertBlock = db
		if spec.BaselineAS != nil {
			w.Registry.Register(spec.BaselineAS.ASN, spec.BaselineAS.Name)
			bb, err := opPool.AllocSubnet(18)
			if err != nil {
				panic(err)
			}
			infra.BaselineBlock = bb
			w.staticRoutes = append(w.staticRoutes, bgp.Route{Prefix: bb, Origins: []bgp.ASN{spec.BaselineAS.ASN}})
		}
		if spec.NSSLD != "" {
			infra.NSHosts = []string{"ns1." + spec.NSSLD, "ns2." + spec.NSSLD}
		}
		for j := range infra.NSHosts {
			a, err := ipam.NthAddr(infra.Prefix, uint64(10+j))
			if err != nil {
				panic(err)
			}
			infra.NSAddrs = append(infra.NSAddrs, a)
		}
		if spec.NSSLD != "" {
			w.infraApex[spec.NSSLD] = mustNth(infra.Prefix, 9)
		}
		if spec.BaselineCNAMESLD != "" {
			w.infraApex[spec.BaselineCNAMESLD] = mustNth(infra.BaselineBlock, 9)
		}
		w.Operators[i] = infra
	}

	for i := range GenericHosters {
		spec := &GenericHosters[i]
		w.Registry.Register(spec.AS.ASN, spec.AS.Name)
		p, err := hostPool.AllocSubnet(16)
		if err != nil {
			panic(err)
		}
		p6, err := hostPool6.AllocSubnet(48)
		if err != nil {
			panic(err)
		}
		sld := fmt.Sprintf("hostco%d.net", i)
		infra := &hosterInfra{
			Spec:    spec,
			Prefix:  p,
			Prefix6: p6,
			NSHosts: []string{"ns1." + sld, "ns2." + sld},
		}
		for j := range infra.NSHosts {
			a, err := ipam.NthAddr(p, uint64(10+j))
			if err != nil {
				panic(err)
			}
			infra.NSAddrs = append(infra.NSAddrs, a)
		}
		w.infraApex[sld] = mustNth(p, 9)
		w.staticRoutes = append(w.staticRoutes, bgp.Route{Prefix: p, Origins: []bgp.ASN{spec.AS.ASN}})
		w.staticRoutes = append(w.staticRoutes, bgp.Route{Prefix: p6, Origins: []bgp.ASN{spec.AS.ASN}})
		w.Hosters = append(w.Hosters, infra)
	}
}

// ProbeApex actively resolves the apex address of an SLD outside the
// daily pipeline: the discovery procedure uses it to check where a
// candidate reference SLD itself is hosted. Registered customer domains
// resolve through their day state; infrastructure SLDs through the
// service-domain table. ok is false for unknown names.
func (w *World) ProbeApex(name string, day simtime.Day) (netip.Addr, bool) {
	if a, ok := w.infraApex[name]; ok {
		return a, true
	}
	if d, ok := w.byName[name]; ok {
		st := w.StateFor(d, day)
		if st.Exists && !st.Unmeasurable && len(st.ApexA) > 0 {
			return st.ApexA[0], true
		}
	}
	return netip.Addr{}, false
}

// buildNamespaces generates the TLD populations and Domain structs.
func (w *World) buildNamespaces() error {
	cfg := w.Cfg
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	order := []string{"com", "net", "org", "nl"}
	for _, tld := range order {
		var zc zones.Config
		switch tld {
		case "nl":
			if cfg.NLStart == 0 {
				continue
			}
			zc = zones.Config{
				TLD: tld, Window: cfg.NLWindow,
				StartCount: cfg.scaled(cfg.NLStart), EndCount: cfg.scaled(cfg.NLEnd),
				ChurnPerDay: cfg.ChurnPerDay, Seed: cfg.Seed + 4,
			}
		default:
			zc = zones.Config{
				TLD: tld, Window: cfg.Window,
				StartCount:  cfg.scaled(int(float64(cfg.GTLDStart) * gtldShare[tld])),
				EndCount:    cfg.scaled(int(float64(cfg.GTLDEnd) * gtldShare[tld])),
				ChurnPerDay: cfg.ChurnPerDay, Seed: cfg.Seed + simtime.Day(len(tld)).Date().Unix()%97,
			}
		}
		z, err := zones.Build(zc)
		if err != nil {
			return err
		}
		w.TLDs[tld] = z
		for i := range z.Domains {
			d := &Domain{
				Name:     z.Domains[i].Name,
				TLD:      tld,
				Life:     z.Domains[i].Active,
				Hoster:   rng.Intn(len(w.Hosters)),
				Operator: -1,
				hostSlot: rng.Intn(1 << 14),
			}
			w.Domains = append(w.Domains, d)
			w.byName[d.Name] = d
		}
	}
	return nil
}

// assignOperatorCohorts marks which domains each third party controls.
func (w *World) assignOperatorCohorts() {
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x0b5e55ed))
	// Candidates: gTLD domains alive for the whole window (operators'
	// portfolios are stable), not yet taken.
	var candidates []*Domain
	for _, d := range w.Domains {
		if d.TLD != "nl" && d.Life.Start < w.Cfg.Window.Start && d.Life.End >= zones.Forever {
			candidates = append(candidates, d)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	next := 0
	for i := range w.Operators {
		infra := w.Operators[i]
		n := w.Cfg.scaled(infra.Spec.Domains)
		if next+n > len(candidates) {
			n = len(candidates) - next
		}
		infra.cohort = n
		for k := 0; k < n; k++ {
			d := candidates[next+k]
			d.Operator = i
			d.OpIdx = k
		}
		next += n
	}
}

// assignCustomers creates the direct DPS customer populations.
func (w *World) assignCustomers() {
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0xc057))
	cfg := w.Cfg
	// Candidates: gTLD domains without an operator, queued per TLD.
	var pool []*Domain
	queues := map[string][]*Domain{}
	for _, d := range w.Domains {
		if d.Operator < 0 && d.TLD != "nl" {
			pool = append(pool, d)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, d := range pool {
		queues[d.TLD] = append(queues[d.TLD], d)
	}
	// deferred holds candidates rejected by an early-subscriber draw;
	// they remain available for growth subscribers.
	deferred := map[string][]*Domain{}
	take := func(wantTLD string, needEarly bool) *Domain {
		tlds := []string{wantTLD}
		if wantTLD == "" {
			tlds = GTLDs()
		}
		for _, tld := range tlds {
			for len(queues[tld]) > 0 {
				d := queues[tld][0]
				queues[tld] = queues[tld][1:]
				if d.Cust != nil {
					continue
				}
				// Early subscribers need a domain registered before the
				// window and not deleted during it; rejected candidates
				// stay available as a fallback for later draws.
				if needEarly && !(d.Life.Start < cfg.Window.Start && d.Life.End >= cfg.Window.End) {
					deferred[tld] = append(deferred[tld], d)
					continue
				}
				return d
			}
			if !needEarly {
				for len(deferred[tld]) > 0 {
					d := deferred[tld][0]
					deferred[tld] = deferred[tld][1:]
					if d.Cust == nil {
						return d
					}
				}
			}
		}
		return nil
	}
	// pickTLD draws a TLD according to the paper's DPS-use distribution.
	pickTLD := func() string {
		v := rng.Float64()
		switch {
		case v < dpsShare["com"]:
			return "com"
		case v < dpsShare["com"]+dpsShare["net"]:
			return "net"
		default:
			return "org"
		}
	}

	bgpPool := ipam.MustPool("192.0.0.0/8")
	seq := make([]int, NumProviders)
	newCustomer := func(pi int, profile Profile) *Customer {
		c := &Customer{
			Provider:  pi,
			Profile:   profile,
			Sub:       simtime.Range{Start: cfg.Window.Start - 1, End: zones.Forever},
			cloudSlot: rng.Intn(1 << 12),
			seq:       seq[pi],
		}
		seq[pi]++
		return c
	}

	for pi := range ProviderSpecs {
		spec := &ProviderSpecs[pi]
		for _, pc := range spec.AlwaysOn {
			start := cfg.scaled(pc.Start)
			end := cfg.scaled(pc.End)
			churn := int(spec.ChurnFrac * float64(start))
			total := end + churn
			growth := total - start
			for i := 0; i < total; i++ {
				needEarly := i < start
				d := take(pickTLD(), needEarly)
				if d == nil {
					d = take("", needEarly)
				}
				if d == nil {
					break
				}
				c := newCustomer(pi, pc.Profile)
				if i >= start {
					// Growth subscriber: linear arrival over the window.
					k := i - start
					frac := float64(k+1) / float64(growth+1)
					day := cfg.Window.Start + simtime.Day(frac*float64(cfg.Window.Len()-1))
					c.Sub.Start = day
				}
				if pc.Profile == ProfileBGP {
					p, err := bgpPool.AllocSubnet(24)
					if err == nil {
						c.bgpPrefix = p
					}
				}
				d.Cust = c
				w.clampToLife(d)
			}
			// Churn: the churn earliest subscribers leave at random days.
			churned := 0
			for _, d := range pool {
				if churned >= churn {
					break
				}
				if d.Cust != nil && d.Cust.Provider == pi && d.Cust.Profile == pc.Profile && d.Cust.Sub.Start < cfg.Window.Start {
					d.Cust.Sub.End = cfg.Window.Start + simtime.Day(rng.Intn(cfg.Window.Len()))
					churned++
				}
			}
		}
		// On-demand customers.
		q := durationQ(spec.OnDemandP80Days)
		for i, n := 0, cfg.scaled(spec.OnDemand); i < n; i++ {
			d := take(pickTLD(), false)
			if d == nil {
				d = take("", false)
			}
			if d == nil {
				break
			}
			profile := ProfileA
			if spec.SupportsCNAME() && rng.Intn(3) == 0 {
				profile = ProfileCNAME
			}
			if !spec.SupportsCNAME() && !spec.SupportsNS() {
				profile = ProfileA
			}
			if rng.Intn(4) == 0 {
				profile = ProfileBGP
			}
			c := newCustomer(pi, profile)
			c.OnDemand = true
			if profile == ProfileBGP {
				if p, err := bgpPool.AllocSubnet(24); err == nil {
					c.bgpPrefix = p
				} else {
					c.Profile = ProfileA
				}
			}
			peaks := 3 + rng.Intn(4)
			at := cfg.Window.Start + simtime.Day(rng.Intn(30))
			for k := 0; k < peaks && int(at) < int(cfg.Window.End); k++ {
				dur := drawDuration(rng, q)
				c.Peaks = append(c.Peaks, simtime.Range{Start: at, End: at + simtime.Day(dur)})
				gap := 10 + rng.Intn(120)
				at += simtime.Day(dur + gap)
			}
			d.Cust = c
			w.clampToLife(d)
		}
	}

	// .nl adoption: ≈1% of the zone, mostly CloudFlare, growing 10.5%
	// over the .nl window. The initial population must come from domains
	// already registered when the window opens; growth subscribers may be
	// newly registered names.
	var nlEarly, nlLate []*Domain
	for _, d := range w.Domains {
		if d.TLD != "nl" || d.Cust != nil {
			continue
		}
		if d.Life.Contains(cfg.NLWindow.Start) && d.Life.End >= cfg.NLWindow.End {
			nlEarly = append(nlEarly, d)
		} else {
			nlLate = append(nlLate, d)
		}
	}
	rng.Shuffle(len(nlEarly), func(i, j int) { nlEarly[i], nlEarly[j] = nlEarly[j], nlEarly[i] })
	rng.Shuffle(len(nlLate), func(i, j int) { nlLate[i], nlLate[j] = nlLate[j], nlLate[i] })
	nlPool := append(nlEarly, nlLate...)
	nlStart := cfg.scaled(cfg.NLStart) / 100
	nlEnd := nlStart + (nlStart*105+500)/1000 // +10.5%
	for i := 0; i < nlEnd && i < len(nlPool); i++ {
		d := nlPool[i]
		pi := CloudFlare
		if i%7 == 3 {
			pi = Incapsula
		}
		profile := ProfileNSProxied
		if pi == Incapsula {
			profile = ProfileCNAME
		}
		c := newCustomer(pi, profile)
		c.Sub.Start = cfg.NLWindow.Start - 1
		if i >= nlStart {
			k := i - nlStart
			frac := float64(k+1) / float64(nlEnd-nlStart+1)
			c.Sub.Start = cfg.NLWindow.Start + simtime.Day(frac*float64(cfg.NLWindow.Len()-1))
		}
		d.Cust = c
		w.clampToLife(d)
	}
}

// clampToLife trims a customer's subscription to the domain's lifetime.
func (w *World) clampToLife(d *Domain) {
	if d.Cust == nil {
		return
	}
	if d.Cust.Sub.Start < d.Life.Start {
		d.Cust.Sub.Start = d.Life.Start
	}
	if d.Cust.Sub.End > d.Life.End {
		d.Cust.Sub.End = d.Life.End
	}
}

// durationQ converts an 80th-percentile target into the geometric-
// distribution parameter q with P(D ≤ p80) = 0.8 (q is the daily
// continuation probability: q^p80 = 0.2).
func durationQ(p80 int) float64 {
	if p80 < 1 {
		p80 = 1
	}
	return math.Pow(0.2, 1.0/float64(p80))
}

// drawDuration samples a geometric duration (≥1 day) with parameter q.
func drawDuration(rng *rand.Rand, q float64) int {
	d := 1
	for rng.Float64() < q && d < 110 {
		d++
	}
	return d
}

// buildAlexa selects the popularity list: a fixed core plus a rotating
// tail, biased toward DPS-protected domains the way real top lists are.
func (w *World) buildAlexa() {
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0xa1e8a))
	size := w.Cfg.scaled(w.Cfg.AlexaSize)
	if size <= 0 {
		return
	}
	coreN := size * 7 / 10
	w.alexaTail = size - coreN
	poolN := w.alexaTail * 5

	var customers, background []int
	for i, d := range w.Domains {
		if d.TLD == "nl" || d.Life.End < zones.Forever {
			continue
		}
		if d.Cust != nil && !d.Cust.OnDemand {
			customers = append(customers, i)
		} else if d.Operator < 0 {
			background = append(background, i)
		}
	}
	rng.Shuffle(len(customers), func(i, j int) { customers[i], customers[j] = customers[j], customers[i] })
	rng.Shuffle(len(background), func(i, j int) { background[i], background[j] = background[j], background[i] })

	// ~15% of the core is DPS-protected.
	dpsN := coreN * 15 / 100
	if dpsN > len(customers) {
		dpsN = len(customers)
	}
	w.alexaCore = append(w.alexaCore, customers[:dpsN]...)
	bgN := coreN - dpsN
	if bgN > len(background) {
		bgN = len(background)
	}
	w.alexaCore = append(w.alexaCore, background[:bgN]...)
	// Tail pool from the remaining background.
	rest := background[bgN:]
	if poolN > len(rest) {
		poolN = len(rest)
	}
	w.alexaPool = rest[:poolN]
	sort.Ints(w.alexaCore)
}

// AlexaList returns the domain indices on the popularity list for a day.
func (w *World) AlexaList(day simtime.Day) []int {
	out := append([]int(nil), w.alexaCore...)
	if len(w.alexaPool) == 0 || w.alexaTail == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ int64(day)*2654435761))
	perm := rng.Perm(len(w.alexaPool))
	for i := 0; i < w.alexaTail && i < len(perm); i++ {
		out = append(out, w.alexaPool[perm[i]])
	}
	return out
}

// GTLDs returns the measured generic TLD labels in order.
func GTLDs() []string { return []string{"com", "net", "org"} }
