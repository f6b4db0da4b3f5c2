package dnszone_test

import (
	"fmt"
	"net/netip"

	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/dnszone"
)

// ExampleZone_LookupInto reproduces the paper's Section 2 "Canonical Name"
// diversion example: www.examp.le is an alias into the DPS-owned foob.ar
// zone.
func ExampleZone_LookupInto() {
	z := dnszone.MustNew("examp.le")
	z.MustAdd(dnswire.RR{Name: "www.examp.le", Type: dnswire.TypeCNAME, TTL: 300,
		Data: dnswire.CNAME{Target: "foob.ar"}})

	var res dnszone.Result
	z.LookupInto(&res, "www.examp.le", dnswire.TypeA)
	fmt.Println(res.RCode, res.Authoritative)
	fmt.Println(res.Answer[0])
	// Output:
	// NOERROR true
	// www.examp.le 300 IN CNAME foob.ar
}

// ExampleZone_LookupInto_delegation shows a registry-style referral below a
// zone cut, with glue.
func ExampleZone_LookupInto_delegation() {
	com := dnszone.MustNew("com")
	com.MustAdd(dnswire.RR{Name: "examp.com", Type: dnswire.TypeNS, TTL: 3600,
		Data: dnswire.NS{Host: "ns1.examp.com"}})
	com.MustAdd(dnswire.RR{Name: "ns1.examp.com", Type: dnswire.TypeA, TTL: 3600,
		Data: dnswire.A{Addr: netip.MustParseAddr("10.0.0.53")}})

	var res dnszone.Result
	com.LookupInto(&res, "www.examp.com", dnswire.TypeA)
	fmt.Println("delegated:", res.Delegated)
	fmt.Println(res.Authority[0])
	fmt.Println(res.Additional[0])
	// Output:
	// delegated: true
	// examp.com 3600 IN NS ns1.examp.com
	// ns1.examp.com 3600 IN A 10.0.0.53
}
