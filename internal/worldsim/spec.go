// Package worldsim generates the synthetic Internet against which the
// measurement pipeline runs: TLD namespaces evolving daily, nine DPS
// providers with the exact reference identities of the paper's Table 2,
// hosting/registrar/parking third parties with the scripted diversion
// events of §4.4.1, and the BGP announcements that make prefix-to-AS
// supplementation meaningful.
//
// All magnitudes in the specifications below are at *paper scale* (the
// real Internet); Config.Scale divides them for simulation. At the default
// scale of 1000, the 1.76M-domain Wix peak becomes 1760 domains, and every
// ratio in every figure is preserved.
package worldsim

import "dpsadopt/internal/bgp"

// Profile describes how a customer domain uses its DPS — which of the
// paper's reference combinations (§3.3) it produces.
type Profile int

// Customer profiles.
const (
	// ProfileA: address records point at a DPS-assigned IP. Produces an
	// AS reference only.
	ProfileA Profile = iota
	// ProfileCNAME: www is an alias into a DPS-owned zone and the apex
	// address is a DPS cloud IP. Produces CNAME + AS references.
	ProfileCNAME
	// ProfileNSProxied: the zone is delegated to the DPS and addresses
	// route to the DPS cloud. Produces NS + AS references.
	ProfileNSProxied
	// ProfileNSOnly: the zone is delegated to the DPS (e.g. a managed-DNS
	// service) but addresses stay on the customer's own hosting. Produces
	// an NS reference only.
	ProfileNSOnly
	// ProfileBGP: records never change; the covering prefix is announced
	// by the DPS (always or during attacks). Produces an AS reference.
	ProfileBGP
)

var profileNames = [...]string{"A", "CNAME", "NS-proxied", "NS-only", "BGP"}

// ASSpec is one autonomous system of a provider or operator.
type ASSpec struct {
	ASN  bgp.ASN
	Name string // AS-to-name registry entry; must contain the holder name
}

// ProviderSpec is the ground truth for one DPS provider: its Table 2
// identity plus the adoption-model parameters that shape Figures 3–8.
type ProviderSpec struct {
	Name string
	// ASes are the provider's autonomous systems (Table 2, column 2).
	ASes []ASSpec
	// CNAMESLDs are second-level domains appearing in customer CNAME
	// expansions (Table 2, column 3). Empty when unsupported.
	CNAMESLDs []string
	// NSSLDs are second-level domains of the provider's authoritative
	// name servers (Table 2, column 4). Empty when unsupported.
	NSSLDs []string

	// Adoption model (paper-scale counts; divided by Config.Scale).
	// Always-on direct customers at the start and end of the window, per
	// profile. Linear subscription growth in between.
	AlwaysOn []ProfileCount
	// OnDemand is the number of direct customers showing ≥3 diversion
	// peaks over the window (Fig 8 population).
	OnDemand int
	// OnDemandP80Days is the 80th percentile of peak durations (Fig 8).
	OnDemandP80Days int
	// ChurnFrac is the fraction of always-on customers that unsubscribe
	// during the window (they contribute to last-seen outflux, Fig 7).
	ChurnFrac float64
}

// ProfileCount is a start→end always-on population for one profile.
type ProfileCount struct {
	Profile    Profile
	Start, End int
}

// Provider indices, fixed by alphabetical order as in the paper's Table 2.
const (
	Akamai = iota
	CenturyLink
	CloudFlare
	DOSarrest
	F5
	Incapsula
	Level3
	Neustar
	Verisign
	NumProviders
)

// ProviderSpecs is the Table 2 ground truth plus adoption parameters.
// Counts were chosen so the smoothed quiet-day totals reproduce the
// paper's shapes: combined growth ≈1.24×, CloudFlare NS share ≈75%,
// Incapsula NS share ≈0.02%, Verisign's NS line above its AS line for the
// first eleven months, etc. EXPERIMENTS.md records measured vs paper.
var ProviderSpecs = [NumProviders]ProviderSpec{
	Akamai: {
		Name: "Akamai",
		ASes: []ASSpec{
			{20940, "AKAMAI-ASN1 - Akamai International B.V."},
			{16625, "AKAMAI-AS - Akamai Technologies, Inc."},
			// Prolexic's AS name predates the acquisition and does not
			// mention Akamai: the discovery procedure must recover it
			// from SLD co-occurrence, not from the AS-name seed (§3.3,
			// "find any ASNs we may have missed in the first step").
			{32787, "PROLEXIC-TECHNOLOGIES-DDOS - Prolexic Technologies, Inc."},
		},
		CNAMESLDs: []string{"akamaiedge.net", "edgekey.net", "edgesuite.net", "akamai.net"},
		NSSLDs:    []string{"akam.net", "akamai.net", "akamaiedge.net"},
		AlwaysOn: []ProfileCount{
			{ProfileCNAME, 550_000, 590_000},
			{ProfileNSProxied, 65_000, 70_000},
			{ProfileA, 35_000, 40_000},
		},
		OnDemand:        30_000,
		OnDemandP80Days: 10,
		ChurnFrac:       0.05,
	},
	CenturyLink: {
		Name: "CenturyLink",
		ASes: []ASSpec{
			{209, "CENTURYLINK-US-LEGACY-QWEST - CenturyLink Communications, LLC"},
			{3561, "CENTURYLINK-LEGACY-SAVVIS - CenturyLink (Savvis)"},
		},
		NSSLDs: []string{"savvis.net", "savvisdirect.net", "qwest.net", "centurytel.net", "centurylink.net"},
		AlwaysOn: []ProfileCount{
			{ProfileNSOnly, 30_000, 28_000},
			{ProfileBGP, 55_000, 35_000},
		},
		OnDemand:        15_000,
		OnDemandP80Days: 6,
		ChurnFrac:       0.15,
	},
	CloudFlare: {
		Name: "CloudFlare",
		ASes: []ASSpec{
			{13335, "CLOUDFLARENET - CloudFlare, Inc."},
		},
		CNAMESLDs: []string{"cloudflare.net"},
		NSSLDs:    []string{"cloudflare.com"},
		AlwaysOn: []ProfileCount{
			{ProfileNSProxied, 1_350_000, 2_050_000},
			{ProfileA, 360_000, 520_000},
			{ProfileCNAME, 90_000, 130_000},
		},
		OnDemand:        60_000,
		OnDemandP80Days: 31,
		ChurnFrac:       0.04,
	},
	DOSarrest: {
		Name: "DOSarrest",
		ASes: []ASSpec{
			{19324, "DOSARREST - DOSarrest Internet Security LTD"},
		},
		AlwaysOn: []ProfileCount{
			{ProfileA, 120_000, 280_000},
		},
		OnDemand:        20_000,
		OnDemandP80Days: 27,
		ChurnFrac:       0.03,
	},
	F5: {
		Name: "F5 Networks",
		ASes: []ASSpec{
			{55002, "DEFENSE-NET - F5 Networks (Defense.Net, Inc)"},
		},
		AlwaysOn: []ProfileCount{
			{ProfileA, 60_000, 70_000},
		},
		OnDemand:        10_000,
		OnDemandP80Days: 79,
		ChurnFrac:       0.05,
	},
	Incapsula: {
		Name: "Incapsula",
		ASes: []ASSpec{
			{19551, "INCAPSULA - Incapsula Inc"},
		},
		CNAMESLDs: []string{"incapdns.net"},
		NSSLDs:    []string{"incapsecuredns.net"},
		AlwaysOn: []ProfileCount{
			{ProfileCNAME, 115_000, 290_000},
			{ProfileA, 5_000, 10_000},
			{ProfileNSProxied, 30, 60}, // "only about 0.02% of domains use delegation"
		},
		OnDemand:        40_000,
		OnDemandP80Days: 11,
		ChurnFrac:       0.04,
	},
	Level3: {
		Name: "Level 3",
		ASes: []ASSpec{
			{3549, "LVLT-3549 - Level 3 Communications, Inc. (GBLX)"},
			{3356, "LEVEL3 - Level 3 Communications, Inc."},
			{11213, "LEVEL3-11213 - Level 3 Communications (DDoS Mitigation)"},
			{10753, "LVLT-10753 - Level 3 Communications, Inc."},
		},
		NSSLDs: []string{"l3.net", "level3.net"},
		AlwaysOn: []ProfileCount{
			{ProfileNSOnly, 25_000, 26_000},
			{ProfileBGP, 30_000, 36_000},
		},
		OnDemand:        12_000,
		OnDemandP80Days: 4,
		ChurnFrac:       0.06,
	},
	Neustar: {
		Name: "Neustar",
		ASes: []ASSpec{
			{7786, "NEUSTAR-AS6 - Neustar, Inc. (SiteProtect)"},
			{12008, "NEUSTAR-AS1 - Neustar, Inc. (UltraDNS)"},
			{19905, "NEUSTAR-AS3 - Neustar, Inc."},
		},
		CNAMESLDs: []string{"ultradns.net"},
		NSSLDs:    []string{"ultradns.com", "ultradns.biz"},
		AlwaysOn: []ProfileCount{
			{ProfileCNAME, 40_000, 44_000},
			{ProfileNSOnly, 50_000, 52_000},
			{ProfileBGP, 30_000, 40_000},
		},
		OnDemand:        80_000,
		OnDemandP80Days: 4, // hybrid always-on: traffic not continuously diverted
		ChurnFrac:       0.05,
	},
	Verisign: {
		Name: "Verisign",
		ASes: []ASSpec{
			{26415, "VERISIGN-INC - VeriSign Infrastructure & Operations"},
			{30060, "VERISIGN-ILG1 - VeriSign Global Registry Services"},
		},
		NSSLDs: []string{"verisigndns.com"},
		AlwaysOn: []ProfileCount{
			// Managed DNS (delegation without diversion) exceeds the
			// diverting population during the first eleven months.
			{ProfileNSOnly, 300_000, 330_000},
			{ProfileBGP, 150_000, 380_000},
		},
		OnDemand:        25_000,
		OnDemandP80Days: 16,
		ChurnFrac:       0.05,
	},
}

// SupportsCNAME reports whether the provider offers CNAME redirection.
func (s *ProviderSpec) SupportsCNAME() bool { return len(s.CNAMESLDs) > 0 }

// SupportsNS reports whether the provider offers zone delegation.
func (s *ProviderSpec) SupportsNS() bool { return len(s.NSSLDs) > 0 }
