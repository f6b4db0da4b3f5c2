package core_test

import (
	"fmt"

	"dpsadopt/internal/core"
	"dpsadopt/internal/store"
)

// ExampleReferences shows how measured DNS data maps to provider
// references (§3.3): an origin AS, a CNAME expansion SLD, or an NS SLD.
// The SLD references match as detection reads a day's measured rows.
func ExampleReferences() {
	refs := core.MustGroundTruth()

	if p, ok := refs.MatchASN(19551); ok {
		fmt.Println("AS19551 →", refs.Providers[p].Name)
	}
	_, ok := refs.MatchASN(14618) // Amazon is not a DPS
	fmt.Println("AS14618 is a DPS:", ok)

	s := store.New()
	w := s.NewWriter("com", 0)
	w.AddStr("shop.example", store.KindWWWCNAME, "shop.example.incapdns.net")
	w.AddStr("blog.example", store.KindNS, "kate.ns.cloudflare.com")
	w.AddStr("mail.example", store.KindNS, "ns1.hostco3.net")
	w.Commit()
	det := core.DetectDay(s, "com", 0, refs)
	for p, prov := range refs.Providers {
		det.EachUse(p, func(_ uint32, m core.Method) { fmt.Println(m, "→", prov.Name) })
	}
	// Output:
	// AS19551 → Incapsula
	// AS14618 is a DPS: false
	// NS → CloudFlare
	// CNAME → Incapsula
}

// ExampleSLD shows public-suffix-aware second-level-domain extraction.
func ExampleSLD() {
	fmt.Println(core.SLD("a1832.g.akamaiedge.net"))
	fmt.Println(core.SLD("www.example.co.uk"))
	// Output:
	// akamaiedge.net
	// example.co.uk
}

// ExampleMethod shows the reference-combination bitmask.
func ExampleMethod() {
	m := core.RefNS | core.RefAS
	fmt.Println(m)
	fmt.Println(m.Has(core.RefCNAME))
	// Output:
	// AS+NS
	// false
}
