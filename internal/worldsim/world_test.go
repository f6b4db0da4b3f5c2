package worldsim

import (
	"net/netip"
	"testing"
	"time"

	"dpsadopt/internal/bgp"
	"dpsadopt/internal/ipam"
	"dpsadopt/internal/simtime"
)

// testWorld builds a small world (scale 1:20000) once per test binary.
var testWorldCache *World

func getWorld(t testing.TB) *World {
	t.Helper()
	if testWorldCache == nil {
		w, err := New(DefaultConfig(20000))
		if err != nil {
			t.Fatal(err)
		}
		testWorldCache = w
	}
	return testWorldCache
}

func TestWorldSizes(t *testing.T) {
	w := getWorld(t)
	s := w.Stats()
	// 140M/20000 = 7000 at start; observed over period slightly higher.
	if s.ByTLD["com"] < 5000 || s.ByTLD["com"] > 8000 {
		t.Errorf("com domains = %d", s.ByTLD["com"])
	}
	if s.ByTLD["nl"] < 250 || s.ByTLD["nl"] > 350 {
		t.Errorf("nl domains = %d", s.ByTLD["nl"])
	}
	if s.Customers == 0 || s.OnDemand == 0 {
		t.Errorf("customers = %d, ondemand = %d", s.Customers, s.OnDemand)
	}
	// gTLD active counts: start ≈ 7000, end ≈ 7610 (1.087×).
	start, end := 0, 0
	for _, tld := range GTLDs() {
		start += w.TLDs[tld].ActiveCount(0)
		end += w.TLDs[tld].ActiveCount(549)
	}
	ratio := float64(end) / float64(start)
	if ratio < 1.06 || ratio > 1.12 {
		t.Errorf("namespace expansion = %.3f (start %d, end %d), want ≈1.087", ratio, start, end)
	}
}

func TestDeterministicBuild(t *testing.T) {
	cfg := DefaultConfig(50000)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Domains) != len(b.Domains) {
		t.Fatalf("domain counts differ: %d vs %d", len(a.Domains), len(b.Domains))
	}
	for i := range a.Domains {
		da, db := a.Domains[i], b.Domains[i]
		if da.Name != db.Name || da.Operator != db.Operator || (da.Cust == nil) != (db.Cust == nil) {
			t.Fatalf("domain %d differs: %+v vs %+v", i, da, db)
		}
	}
	// Spot-check states match.
	for _, day := range []simtime.Day{0, 100, 400} {
		for i := 0; i < len(a.Domains); i += 97 {
			sa, sb := a.StateFor(a.Domains[i], day), b.StateFor(b.Domains[i], day)
			if sa.WWWCNAME != sb.WWWCNAME || len(sa.ApexA) != len(sb.ApexA) {
				t.Fatalf("state differs for %s day %v", a.Domains[i].Name, day)
			}
		}
	}
}

func findCustomer(w *World, provider int, profile Profile, onDemand bool) *Domain {
	for _, d := range w.Domains {
		if c := d.Cust; c != nil && c.Provider == provider && c.Profile == profile && c.OnDemand == onDemand && d.TLD != "nl" {
			if !onDemand && c.Sub.Start < w.Cfg.Window.Start && c.Sub.End > w.Cfg.Window.End {
				return d
			}
			if onDemand && len(c.Peaks) >= 3 &&
				d.Life.Start < c.Peaks[0].Start && d.Life.End > c.Peaks[0].End {
				return d
			}
		}
	}
	return nil
}

func TestStateCloudFlareNSProxied(t *testing.T) {
	w := getWorld(t)
	d := findCustomer(w, CloudFlare, ProfileNSProxied, false)
	if d == nil {
		t.Fatal("no CloudFlare NS-proxied customer in world")
	}
	st := w.StateFor(d, 100)
	if !st.Exists || len(st.NSHosts) == 0 {
		t.Fatalf("state = %+v", st)
	}
	for _, ns := range st.NSHosts {
		if !hasSuffix(ns, ".ns.cloudflare.com") {
			t.Errorf("NS host %q not under cloudflare.com", ns)
		}
	}
	// Address must be CloudFlare-announced.
	rib := w.RIBForDay(100)
	origins, _, ok := rib.Origins(st.ApexA[0])
	if !ok || origins[0] != 13335 {
		t.Errorf("apex origin = %v (%v)", origins, ok)
	}
}

func TestStateIncapsulaCNAME(t *testing.T) {
	w := getWorld(t)
	d := findCustomer(w, Incapsula, ProfileCNAME, false)
	if d == nil {
		t.Fatal("no Incapsula CNAME customer")
	}
	st := w.StateFor(d, 100)
	if !hasSuffix(st.WWWCNAME, ".incapdns.net") {
		t.Errorf("CNAME = %q", st.WWWCNAME)
	}
	rib := w.RIBForDay(100)
	origins, _, _ := rib.Origins(st.ApexA[0])
	if len(origins) == 0 || origins[0] != 19551 {
		t.Errorf("origin = %v", origins)
	}
	// NS must NOT be Incapsula's (no delegation).
	for _, ns := range st.NSHosts {
		if hasSuffix(ns, ".incapsecuredns.net") {
			t.Errorf("unexpected delegation: %q", ns)
		}
	}
}

func TestStateVerisignNSOnly(t *testing.T) {
	w := getWorld(t)
	d := findCustomer(w, Verisign, ProfileNSOnly, false)
	if d == nil {
		t.Fatal("no Verisign NS-only customer")
	}
	st := w.StateFor(d, 100)
	found := false
	for _, ns := range st.NSHosts {
		if hasSuffix(ns, ".verisigndns.com") {
			found = true
		}
	}
	if !found {
		t.Errorf("NS hosts = %v", st.NSHosts)
	}
	// Addresses stay on the customer's own hosting: NOT Verisign ASes.
	rib := w.RIBForDay(100)
	origins, _, ok := rib.Origins(st.ApexA[0])
	if !ok {
		t.Fatal("no route for NS-only customer address")
	}
	for _, o := range origins {
		if o == 26415 || o == 30060 {
			t.Errorf("NS-only customer routed to Verisign: %v", origins)
		}
	}
}

func TestStateOnDemandFlips(t *testing.T) {
	w := getWorld(t)
	d := findCustomer(w, Incapsula, ProfileA, true)
	if d == nil {
		// fall back to any provider's on-demand A customer
		for pi := 0; pi < NumProviders && d == nil; pi++ {
			d = findCustomer(w, pi, ProfileA, true)
		}
	}
	if d == nil {
		t.Fatal("no on-demand A customer")
	}
	c := d.Cust
	peak := c.Peaks[0]
	inPeak := w.StateFor(d, peak.Start)
	cloud := w.Providers[c.Provider].CloudAddr(0, 0)
	_ = cloud
	outside := w.StateFor(d, peak.End)
	if inPeak.ApexA[0] == outside.ApexA[0] {
		t.Errorf("on-demand A customer address did not flip: %v", inPeak.ApexA[0])
	}
	// "a domain switches back and forth between two IP addresses over
	// time of which the prior does not and the latter does reference a
	// DPS" (§3.4).
	rib := w.RIBForDay(peak.Start)
	origins, _, _ := rib.Origins(inPeak.ApexA[0])
	providerASNs := map[bgp.ASN]bool{}
	for _, as := range w.Providers[c.Provider].Spec.ASes {
		providerASNs[as.ASN] = true
	}
	if len(origins) == 0 || !providerASNs[origins[0]] {
		t.Errorf("peak origin = %v, want one of %v", origins, providerASNs)
	}
}

func TestWixMarch2015Peak(t *testing.T) {
	w := getWorld(t)
	peak := simtime.FromDate(2015, time.March, 5)
	quiet := simtime.FromDate(2015, time.April, 10)
	var wixDomain *Domain
	for _, d := range w.Domains {
		if d.Operator == OpWix && d.OpIdx == 0 {
			wixDomain = d
			break
		}
	}
	if wixDomain == nil {
		t.Fatal("no Wix domain")
	}
	// Quiet day: CNAME to amazonaws.com, routed to AWS.
	st := w.StateFor(wixDomain, quiet)
	if !hasSuffix(st.WWWCNAME, ".amazonaws.com") {
		t.Errorf("quiet CNAME = %q", st.WWWCNAME)
	}
	rib := w.RIBForDay(quiet)
	if o, _, _ := rib.Origins(st.ApexA[0]); len(o) == 0 || o[0] != 14618 {
		t.Errorf("quiet origin = %v", o)
	}
	// Peak day: no CNAME, A record in Wix space announced by Incapsula.
	st = w.StateFor(wixDomain, peak)
	if st.WWWCNAME != "" {
		t.Errorf("peak still has CNAME %q", st.WWWCNAME)
	}
	rib = w.RIBForDay(peak)
	if o, _, _ := rib.Origins(st.ApexA[0]); len(o) == 0 || o[0] != 19551 {
		t.Errorf("peak origin = %v", o)
	}
	// NS stays Wix's own throughout.
	if !hasSuffix(st.NSHosts[0], ".wixdns.net") {
		t.Errorf("NS = %v", st.NSHosts)
	}
}

func TestWixF5OpposingSwing(t *testing.T) {
	w := getWorld(t)
	var d *Domain
	for _, dd := range w.Domains {
		if dd.Operator == OpWixF5 && dd.OpIdx == 0 {
			d = dd
			break
		}
	}
	if d == nil {
		t.Fatal("no Wix-F5 domain")
	}
	quiet := simtime.FromDate(2015, time.April, 10)
	peak := simtime.FromDate(2015, time.March, 5)
	stQ := w.StateFor(d, quiet)
	stP := w.StateFor(d, peak)
	// Addresses unchanged (BGP diversion).
	if stQ.ApexA[0] != stP.ApexA[0] {
		t.Errorf("BGP flip changed the address: %v vs %v", stQ.ApexA[0], stP.ApexA[0])
	}
	if o, _, _ := w.RIBForDay(quiet).Origins(stQ.ApexA[0]); len(o) == 0 || o[0] != 55002 {
		t.Errorf("quiet origin = %v, want F5", o)
	}
	if o, _, _ := w.RIBForDay(peak).Origins(stP.ApexA[0]); len(o) == 0 || o[0] != 19551 {
		t.Errorf("peak origin = %v, want Incapsula", o)
	}
}

func TestSedoOutage(t *testing.T) {
	w := getWorld(t)
	outage := simtime.FromDate(2015, time.November, 22)
	var d *Domain
	for _, dd := range w.Domains {
		if dd.Operator == OpSedo {
			d = dd
			break
		}
	}
	if d == nil {
		t.Fatal("no Sedo domain")
	}
	if st := w.StateFor(d, outage); !st.Unmeasurable {
		t.Error("Sedo domain measurable on outage day")
	}
	st := w.StateFor(d, outage+1)
	if st.Unmeasurable || !st.Exists {
		t.Error("Sedo domain should be back the next day")
	}
	// Normally an always-on Akamai customer.
	if o, _, _ := w.RIBForDay(outage + 1).Origins(st.ApexA[0]); len(o) == 0 || o[0] != 20940 {
		t.Errorf("Sedo baseline origin = %v, want Akamai", o)
	}
	if !hasSuffix(st.NSHosts[0], ".sedoparking.com") {
		t.Errorf("NS = %v", st.NSHosts)
	}
}

func TestFabulousTermination(t *testing.T) {
	w := getWorld(t)
	before := simtime.FromDate(2016, time.February, 1)
	after := simtime.FromDate(2016, time.February, 20)
	var d *Domain
	for _, dd := range w.Domains {
		if dd.Operator == OpFabulous {
			d = dd
			break
		}
	}
	if d == nil {
		t.Fatal("no Fabulous domain")
	}
	stB := w.StateFor(d, before)
	if o, _, _ := w.RIBForDay(before).Origins(stB.ApexA[0]); len(o) == 0 || o[0] != 3561 {
		t.Errorf("before origin = %v, want CenturyLink AS3561", o)
	}
	stA := w.StateFor(d, after)
	if o, _, _ := w.RIBForDay(after).Origins(stA.ApexA[0]); len(o) == 0 || o[0] != 24940 {
		t.Errorf("after origin = %v, want Fabulous", o)
	}
}

func TestNamecheapEpisode(t *testing.T) {
	w := getWorld(t)
	during := simtime.FromDate(2016, time.February, 10)
	var d *Domain
	for _, dd := range w.Domains {
		if dd.Operator == OpNamecheap && dd.OpIdx == 0 {
			d = dd
			break
		}
	}
	if d == nil {
		t.Fatal("no Namecheap domain")
	}
	st := w.StateFor(d, during)
	// NS stays Namecheap's registrar-servers.com but addresses are
	// CloudFlare-announced.
	if !hasSuffix(st.NSHosts[0], ".registrar-servers.com") {
		t.Errorf("NS = %v", st.NSHosts)
	}
	if o, _, _ := w.RIBForDay(during).Origins(st.ApexA[0]); len(o) == 0 || o[0] != 13335 {
		t.Errorf("episode origin = %v, want CloudFlare", o)
	}
}

func TestAlexaList(t *testing.T) {
	w := getWorld(t)
	day := w.Cfg.NLWindow.Start
	l1 := w.AlexaList(day)
	l2 := w.AlexaList(day)
	if len(l1) == 0 {
		t.Fatal("empty Alexa list")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("AlexaList not deterministic per day")
		}
	}
	next := w.AlexaList(day + 1)
	same := 0
	set := map[int]bool{}
	for _, i := range l1 {
		set[i] = true
	}
	for _, i := range next {
		if set[i] {
			same++
		}
	}
	if same == len(l1) {
		t.Error("Alexa tail never rotates")
	}
	if same < len(l1)*6/10 {
		t.Errorf("Alexa core unstable: %d/%d shared", same, len(l1))
	}
}

func TestAnnounceRangeExactCover(t *testing.T) {
	rib := bgp.NewRIB()
	block := netip.MustParsePrefix("10.50.0.0/18")
	announceRange(rib, block, 0, 550, 1111)
	announceRange(rib, block, 550, int(ipam.HostCount(block)), 2222)
	for _, tc := range []struct {
		n    uint64
		want bgp.ASN
	}{{0, 1111}, {549, 1111}, {550, 2222}, {551, 2222}, {16383, 2222}} {
		a, err := ipam.NthAddr(block, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		o, _, ok := rib.Origins(a)
		if !ok || o[0] != tc.want {
			t.Errorf("addr %d: origins %v, want %v", tc.n, o, tc.want)
		}
	}
}

func TestRegistrySeedsDiscovery(t *testing.T) {
	w := getWorld(t)
	// Every provider's ASes must be findable by the provider name — the
	// seed step of §3.3 — except Prolexic (AS32787), whose AS name
	// deliberately omits "Akamai" so discovery must recover it from SLD
	// co-occurrence.
	for i := range ProviderSpecs {
		spec := &ProviderSpecs[i]
		found := w.Registry.FindByName(spec.Name)
		want := len(spec.ASes)
		if i == Akamai {
			want--
		}
		if len(found) != want {
			t.Errorf("%s: found %v, want %d ASes", spec.Name, found, want)
		}
	}
}

func TestOnDemandPeakCounts(t *testing.T) {
	w := getWorld(t)
	for _, d := range w.Domains {
		if c := d.Cust; c != nil && c.OnDemand {
			if len(c.Peaks) < 3 {
				t.Fatalf("on-demand customer %s has %d peaks", d.Name, len(c.Peaks))
			}
			for i := 1; i < len(c.Peaks); i++ {
				if c.Peaks[i].Start < c.Peaks[i-1].End {
					t.Fatalf("overlapping peaks for %s", d.Name)
				}
			}
		}
	}
}

func TestNonexistentDomainState(t *testing.T) {
	w := getWorld(t)
	for _, d := range w.Domains {
		if d.Life.Start > 10 {
			if st := w.StateFor(d, 0); st.Exists {
				t.Fatalf("%s exists before registration", d.Name)
			}
			break
		}
	}
}

func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}

func TestDualStackState(t *testing.T) {
	w := getWorld(t)
	day := simtime.Day(100)
	rib := w.RIBForDay(day)
	dualSeen, v4Only := 0, 0
	for _, d := range w.Domains {
		st := w.StateFor(d, day)
		if !st.Exists || st.Unmeasurable {
			continue
		}
		if len(st.ApexAAAA) > 0 {
			dualSeen++
			a6 := st.ApexAAAA[0]
			if !a6.Is6() || a6.Is4In6() {
				t.Fatalf("%s: AAAA %v not IPv6", d.Name, a6)
			}
			// Every published v6 address is routed, and for cloud-diverted
			// customers it originates at the same provider as the v4.
			o6, _, ok6 := rib.Origins(a6)
			o4, _, ok4 := rib.Origins(st.ApexA[0])
			if !ok6 || !ok4 {
				t.Fatalf("%s: unrouted address (v4 ok=%v, v6 ok=%v)", d.Name, ok4, ok6)
			}
			if c := d.Cust; c != nil && !c.OnDemand && c.Profile != ProfileBGP && c.Profile != ProfileNSOnly {
				if o6[0] != o4[0] {
					t.Errorf("%s: v4 origin %v != v6 origin %v", d.Name, o4, o6)
				}
			}
		} else {
			v4Only++
		}
	}
	if dualSeen == 0 {
		t.Fatal("no dual-stacked domains")
	}
	frac := float64(dualSeen) / float64(dualSeen+v4Only)
	if frac < 0.08 || frac > 0.30 {
		t.Errorf("dual-stack share = %.3f, want ≈0.2 of eligible", frac)
	}
}
