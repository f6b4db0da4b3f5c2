package worldsim

import (
	"fmt"
	"net/netip"

	"dpsadopt/internal/dnsserver"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/dnszone"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/transport"
)

// Wire is a one-day materialisation of the world as real DNS
// infrastructure: authoritative servers bound on a transport network,
// serving actual zones, resolvable from the returned root addresses. It is
// the full-fidelity counterpart of StateFor, used by correctness tests,
// the live examples, and the measurement pipeline's wire mode.
type Wire struct {
	Network transport.Network
	Roots   []netip.AddrPort
	Day     simtime.Day

	running []*dnsserver.Running
	streams []*dnsserver.RunningStream
}

// SetFaults installs a fault injector (e.g. chaos.ServerFaults) on every
// authoritative server of the day's infrastructure — root, registry,
// hoster, provider and operator servers alike — so a chaos scenario
// degrades the whole simulated Internet, not a single zone.
func (wi *Wire) SetFaults(fi dnsserver.FaultInjector) {
	seen := map[*dnsserver.Server]bool{}
	for _, r := range wi.running {
		if !seen[r.Server] {
			seen[r.Server] = true
			r.Server.SetFaults(fi)
		}
	}
}

// Close stops all servers.
func (wi *Wire) Close() {
	for _, r := range wi.running {
		_ = r.Stop()
	}
	for _, r := range wi.streams {
		_ = r.Stop()
	}
	wi.running = nil
	wi.streams = nil
}

// Well-known infrastructure addresses of the simulation.
var (
	rootServerAddr = netip.MustParseAddr("198.41.0.4")
	tldServerAddr  = netip.MustParseAddr("192.5.6.30")
)

// BuildWire constructs the day's DNS infrastructure on the given network.
// Only use at small world scales: every registered domain gets a zone.
func (w *World) BuildWire(day simtime.Day, network transport.Network) (*Wire, error) {
	wi := &Wire{
		Network: network,
		Day:     day,
		Roots:   []netip.AddrPort{netip.AddrPortFrom(rootServerAddr, transport.DNSPort)},
	}

	// nsHostAddr maps every infrastructure NS host name to its address,
	// for glue records.
	nsHostAddr := map[string]netip.Addr{
		"a.gtld-servers.net": tldServerAddr,
	}
	// hostServer maps an NS host name to the server that carries the
	// zones delegated to it.
	hostServer := map[string]*dnsserver.Server{}

	hosterSrvs := make([]*dnsserver.Server, len(w.Hosters))
	for i, h := range w.Hosters {
		hosterSrvs[i] = dnsserver.New()
		for j, host := range h.NSHosts {
			nsHostAddr[host] = h.NSAddrs[j]
			hostServer[host] = hosterSrvs[i]
		}
	}
	provSrvs := make([]*dnsserver.Server, NumProviders)
	for i, p := range w.Providers {
		provSrvs[i] = dnsserver.New()
		for j, host := range p.NSHosts {
			nsHostAddr[host] = p.NSAddrs[j]
			hostServer[host] = provSrvs[i]
		}
	}
	opSrvs := make([]*dnsserver.Server, NumOperators)
	extraSrvs := map[string]*dnsserver.Server{} // baseline CNAME SLD servers (AWS)
	extraAddrs := map[string]netip.Addr{}
	for i, op := range w.Operators {
		opSrvs[i] = dnsserver.New()
		for j, host := range op.NSHosts {
			nsHostAddr[host] = op.NSAddrs[j]
			hostServer[host] = opSrvs[i]
		}
		if sld := op.Spec.BaselineCNAMESLD; sld != "" && extraSrvs[sld] == nil {
			srv := dnsserver.New()
			host := "ns1." + sld
			addr := mustNth(op.BaselineBlock, 5)
			nsHostAddr[host] = addr
			hostServer[host] = srv
			extraSrvs[sld] = srv
			extraAddrs[sld] = addr
		}
	}

	// Root and TLD zones.
	rootZone := dnszone.MustNew(".")
	rootZone.MustAdd(rr(".", dnswire.TypeSOA, dnswire.SOA{MName: "a.root-servers.net", RName: "nstld.verisign-grs.com", Serial: uint32(day) + 1}))
	tldZones := map[string]*dnszone.Zone{}
	tldSrv := dnsserver.New()
	for tld := range w.TLDs {
		z := dnszone.MustNew(tld)
		z.MustAdd(rr(tld, dnswire.TypeSOA, dnswire.SOA{MName: "a.gtld-servers.net", RName: "hostmaster." + tld, Serial: uint32(day) + 1}))
		z.MustAdd(rr(tld, dnswire.TypeNS, dnswire.NS{Host: "a.gtld-servers.net"}))
		tldZones[tld] = z
		tldSrv.AddZone(z)
		rootZone.MustAdd(rr(tld, dnswire.TypeNS, dnswire.NS{Host: "a.gtld-servers.net"}))
	}
	rootZone.MustAdd(rr("a.gtld-servers.net", dnswire.TypeA, dnswire.A{Addr: tldServerAddr}))
	rootSrv := dnsserver.New()
	rootSrv.AddZone(rootZone)
	// The registry servers' own zone, so a.gtld-servers.net resolves.
	gtldZone := dnszone.MustNew("gtld-servers.net")
	gtldZone.MustAdd(rr("gtld-servers.net", dnswire.TypeSOA, dnswire.SOA{MName: "a.gtld-servers.net", RName: "registry.gtld-servers.net", Serial: uint32(day) + 1}))
	gtldZone.MustAdd(rr("gtld-servers.net", dnswire.TypeNS, dnswire.NS{Host: "a.gtld-servers.net"}))
	gtldZone.MustAdd(rr("a.gtld-servers.net", dnswire.TypeA, dnswire.A{Addr: tldServerAddr}))
	tldSrv.AddZone(gtldZone)

	// delegate registers an SLD in its TLD zone with glue where needed.
	// Infrastructure SLDs can live in TLDs outside the measured set
	// (ultradns.biz); those TLD zones are created on demand.
	delegate := func(name string, nsHosts []string) error {
		tld := dnswire.Parent(name)
		z, ok := tldZones[tld]
		if !ok {
			z = dnszone.MustNew(tld)
			z.MustAdd(rr(tld, dnswire.TypeSOA, dnswire.SOA{MName: "a.gtld-servers.net", RName: "hostmaster." + tld, Serial: uint32(day) + 1}))
			z.MustAdd(rr(tld, dnswire.TypeNS, dnswire.NS{Host: "a.gtld-servers.net"}))
			tldZones[tld] = z
			tldSrv.AddZone(z)
			rootZone.MustAdd(rr(tld, dnswire.TypeNS, dnswire.NS{Host: "a.gtld-servers.net"}))
		}
		for _, host := range nsHosts {
			z.MustAdd(rr(name, dnswire.TypeNS, dnswire.NS{Host: host}))
			if dnswire.IsSubdomain(host, tld) {
				if a, ok := nsHostAddr[host]; ok {
					z.MustAdd(rr(host, dnswire.TypeA, dnswire.A{Addr: a}))
				}
			}
		}
		return nil
	}

	// infraZone creates a self-contained SLD zone (SOA, NS, NS-host As,
	// and an apex address so the discovery probe resolves over the wire).
	infraZone := func(origin string, nsHosts []string, extra ...dnswire.RR) *dnszone.Zone {
		z := dnszone.MustNew(origin)
		z.MustAdd(rr(origin, dnswire.TypeSOA, dnswire.SOA{MName: nsHosts[0], RName: "hostmaster." + origin, Serial: uint32(day) + 1}))
		if apex, ok := w.infraApex[origin]; ok {
			z.MustAdd(rr(origin, dnswire.TypeA, dnswire.A{Addr: apex}))
		}
		for _, h := range nsHosts {
			z.MustAdd(rr(origin, dnswire.TypeNS, dnswire.NS{Host: h}))
			if dnswire.IsSubdomain(h, origin) {
				if a, ok := nsHostAddr[h]; ok {
					z.MustAdd(rr(h, dnswire.TypeA, dnswire.A{Addr: a}))
				}
			}
		}
		for _, e := range extra {
			z.MustAdd(e)
		}
		return z
	}

	if err := delegate("gtld-servers.net", []string{"a.gtld-servers.net"}); err != nil {
		return nil, err
	}

	// Hoster infrastructure zones.
	for i, h := range w.Hosters {
		origin := dnswire.Parent(h.NSHosts[0])
		z := infraZone(origin, h.NSHosts)
		hosterSrvs[i].AddZone(z)
		if err := delegate(origin, h.NSHosts); err != nil {
			return nil, err
		}
	}
	// Provider SLD zones: NS SLDs and CNAME SLDs.
	cnameZones := map[string]*dnszone.Zone{} // SLD → zone for CNAME targets
	for i, p := range w.Providers {
		if len(p.NSHosts) > 0 {
			slds := map[string]bool{}
			for _, h := range p.NSHosts {
				slds[sldOf(h)] = true
			}
			for sld := range slds {
				z := infraZone(sld, p.NSHosts)
				provSrvs[i].AddZone(z)
				if err := delegate(sld, p.NSHosts); err != nil {
					return nil, err
				}
			}
		}
		for _, sld := range p.Spec.CNAMESLDs {
			hosts := p.NSHosts
			if len(hosts) == 0 {
				hosts = []string{"ns1." + sld}
				nsHostAddr[hosts[0]] = p.NSAddrs[0]
			}
			z := infraZone(sld, hosts)
			provSrvs[i].AddZone(z)
			cnameZones[sld] = z
			if err := delegate(sld, hosts); err != nil {
				return nil, err
			}
		}
	}
	// Operator infrastructure zones.
	outage := map[int]bool{}
	for i, op := range w.Operators {
		for _, d := range op.Spec.DNSOutages {
			if d == day {
				outage[i] = true
			}
		}
		if op.Spec.NSSLD != "" {
			z := infraZone(op.Spec.NSSLD, op.NSHosts)
			opSrvs[i].AddZone(z)
			if err := delegate(op.Spec.NSSLD, op.NSHosts); err != nil {
				return nil, err
			}
		}
		if sld := op.Spec.BaselineCNAMESLD; sld != "" {
			host := "ns1." + sld
			z := infraZone(sld, []string{host})
			extraSrvs[sld].AddZone(z)
			cnameZones[sld] = z
			if err := delegate(sld, []string{host}); err != nil {
				return nil, err
			}
		}
	}

	// Customer domain zones.
	var st DomainState
	for _, d := range w.Domains {
		w.StateInto(&st, d, day)
		if !st.Exists {
			continue
		}
		if err := delegate(d.Name, st.NSHosts); err != nil {
			return nil, err
		}
		if st.Unmeasurable {
			continue // the owning server is down; delegation dangles
		}
		srv := hostServer[st.NSHosts[0]]
		if srv == nil {
			return nil, fmt.Errorf("worldsim: no server for NS host %s of %s", st.NSHosts[0], d.Name)
		}
		z := dnszone.MustNew(d.Name)
		z.MustAdd(rr(d.Name, dnswire.TypeSOA, dnswire.SOA{MName: st.NSHosts[0], RName: "hostmaster." + d.Name, Serial: uint32(day) + 1}))
		for _, h := range st.NSHosts {
			z.MustAdd(rr(d.Name, dnswire.TypeNS, dnswire.NS{Host: h}))
		}
		for _, a := range st.ApexA {
			z.MustAdd(rr(d.Name, dnswire.TypeA, dnswire.A{Addr: a}))
		}
		for _, a := range st.ApexAAAA {
			z.MustAdd(rr(d.Name, dnswire.TypeAAAA, dnswire.AAAA{Addr: a}))
		}
		www := "www." + d.Name
		if st.WWWCNAME != "" {
			z.MustAdd(rr(www, dnswire.TypeCNAME, dnswire.CNAME{Target: st.WWWCNAME}))
			// The expansion's address records live in the target SLD's
			// zone.
			if cz := cnameZones[sldOf(st.WWWCNAME)]; cz != nil {
				for _, a := range st.WWWA {
					cz.MustAdd(rr(st.WWWCNAME, dnswire.TypeA, dnswire.A{Addr: a}))
				}
				for _, a := range st.WWWAAAA {
					cz.MustAdd(rr(st.WWWCNAME, dnswire.TypeAAAA, dnswire.AAAA{Addr: a}))
				}
			}
		} else {
			for _, a := range st.WWWA {
				z.MustAdd(rr(www, dnswire.TypeA, dnswire.A{Addr: a}))
			}
			for _, a := range st.WWWAAAA {
				z.MustAdd(rr(www, dnswire.TypeAAAA, dnswire.AAAA{Addr: a}))
			}
		}
		srv.AddZone(z)
	}

	// Bind everything: UDP always, plus TCP when the transport supports
	// streams (so truncated responses can be retried per RFC 1035).
	start := func(srv *dnsserver.Server, addr netip.Addr) error {
		run, err := dnsserver.Start(srv, network, addr.String())
		if err != nil {
			return err
		}
		wi.running = append(wi.running, run)
		if stream, err := dnsserver.StartStream(srv, network, addr.String()); err == nil && stream != nil {
			wi.streams = append(wi.streams, stream)
		}
		return nil
	}
	if err := start(rootSrv, rootServerAddr); err != nil {
		wi.Close()
		return nil, err
	}
	if err := start(tldSrv, tldServerAddr); err != nil {
		wi.Close()
		return nil, err
	}
	for i, h := range w.Hosters {
		for _, a := range h.NSAddrs {
			if err := start(hosterSrvs[i], a); err != nil {
				wi.Close()
				return nil, err
			}
		}
	}
	for i, p := range w.Providers {
		for j, a := range p.NSAddrs {
			_ = j
			if err := start(provSrvs[i], a); err != nil {
				wi.Close()
				return nil, err
			}
		}
	}
	for i, op := range w.Operators {
		if outage[i] {
			continue // servers down: queries will time out
		}
		for _, a := range op.NSAddrs {
			if err := start(opSrvs[i], a); err != nil {
				wi.Close()
				return nil, err
			}
		}
	}
	for sld, srv := range extraSrvs {
		if err := start(srv, extraAddrs[sld]); err != nil {
			wi.Close()
			return nil, err
		}
	}
	return wi, nil
}

// sldOf returns the last two labels of a name ("x.y.edgekey.net" →
// "edgekey.net"). All synthetic infrastructure SLDs are two labels.
func sldOf(name string) string {
	labels := dnswire.Labels(name)
	if len(labels) <= 2 {
		return name
	}
	return labels[len(labels)-2] + "." + labels[len(labels)-1]
}

func rr(name string, t dnswire.Type, data dnswire.RData) dnswire.RR {
	return dnswire.RR{Name: name, Type: t, Class: dnswire.ClassIN, TTL: dnszone.DefaultTTL, Data: data}
}
