package dnszone

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"dpsadopt/internal/dnswire"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// lookup is LookupInto into a fresh Result.
func (z *Zone) lookup(qname string, qtype dnswire.Type) Result {
	var res Result
	z.LookupInto(&res, qname, qtype)
	return res
}

// exampleZone builds the zone from the paper's Section 2 examples:
// examp.le with a www CNAME into a DPS domain, plus a delegated child.
func exampleZone(t testing.TB) *Zone {
	z := MustNew("examp.le")
	z.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeSOA, TTL: 3600, Data: dnswire.SOA{
		MName: "ns.registr.ar", RName: "hostmaster.examp.le",
		Serial: 2015030500, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeNS, TTL: 3600, Data: dnswire.NS{Host: "ns.registr.ar"}})
	z.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeA, TTL: 300, Data: dnswire.A{Addr: addr("10.0.0.1")}})
	z.MustAdd(dnswire.RR{Name: "www.examp.le", Type: dnswire.TypeCNAME, TTL: 300, Data: dnswire.CNAME{Target: "foob.ar"}})
	z.MustAdd(dnswire.RR{Name: "mail.examp.le", Type: dnswire.TypeA, TTL: 300, Data: dnswire.A{Addr: addr("10.0.0.9")}})
	z.MustAdd(dnswire.RR{Name: "alias.examp.le", Type: dnswire.TypeCNAME, TTL: 300, Data: dnswire.CNAME{Target: "mail.examp.le"}})
	// Delegated child zone.
	z.MustAdd(dnswire.RR{Name: "child.examp.le", Type: dnswire.TypeNS, TTL: 3600, Data: dnswire.NS{Host: "ns1.child.examp.le"}})
	z.MustAdd(dnswire.RR{Name: "ns1.child.examp.le", Type: dnswire.TypeA, TTL: 3600, Data: dnswire.A{Addr: addr("10.0.0.53")}})
	return z
}

func TestLookupPositive(t *testing.T) {
	z := exampleZone(t)
	res := z.lookup("examp.le", dnswire.TypeA)
	if res.RCode != dnswire.RCodeNoError || !res.Authoritative || res.Delegated {
		t.Fatalf("bad result: %+v", res)
	}
	if len(res.Answer) != 1 || res.Answer[0].Data.String() != "10.0.0.1" {
		t.Errorf("answer = %v", res.Answer)
	}
	if len(res.Authority) != 1 || res.Authority[0].Type != dnswire.TypeNS {
		t.Errorf("authority = %v", res.Authority)
	}
}

func TestLookupCNAMEToExternal(t *testing.T) {
	z := exampleZone(t)
	res := z.lookup("www.examp.le", dnswire.TypeA)
	if res.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %v", res.RCode)
	}
	if len(res.Answer) != 1 {
		t.Fatalf("answer = %v", res.Answer)
	}
	cn, ok := res.Answer[0].Data.(dnswire.CNAME)
	if !ok || cn.Target != "foob.ar" {
		t.Errorf("expected CNAME foob.ar, got %v", res.Answer[0])
	}
}

func TestLookupCNAMEChainInZone(t *testing.T) {
	z := exampleZone(t)
	res := z.lookup("alias.examp.le", dnswire.TypeA)
	if len(res.Answer) != 2 {
		t.Fatalf("expected CNAME + A, got %v", res.Answer)
	}
	if res.Answer[0].Type != dnswire.TypeCNAME || res.Answer[1].Type != dnswire.TypeA {
		t.Errorf("chain order wrong: %v", res.Answer)
	}
	if res.Answer[1].Data.String() != "10.0.0.9" {
		t.Errorf("final address = %v", res.Answer[1])
	}
}

func TestLookupCNAMEQueryForCNAMEItself(t *testing.T) {
	z := exampleZone(t)
	res := z.lookup("www.examp.le", dnswire.TypeCNAME)
	if len(res.Answer) != 1 || res.Answer[0].Type != dnswire.TypeCNAME {
		t.Errorf("answer = %v", res.Answer)
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := exampleZone(t)
	res := z.lookup("nope.examp.le", dnswire.TypeA)
	if res.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v, want NXDOMAIN", res.RCode)
	}
	if len(res.Authority) != 1 || res.Authority[0].Type != dnswire.TypeSOA {
		t.Errorf("authority = %v, want SOA", res.Authority)
	}
}

func TestLookupNoData(t *testing.T) {
	z := exampleZone(t)
	res := z.lookup("mail.examp.le", dnswire.TypeAAAA)
	if res.RCode != dnswire.RCodeNoError {
		t.Errorf("rcode = %v, want NOERROR", res.RCode)
	}
	if len(res.Answer) != 0 {
		t.Errorf("answer = %v, want empty", res.Answer)
	}
	if len(res.Authority) != 1 || res.Authority[0].Type != dnswire.TypeSOA {
		t.Errorf("authority = %v, want SOA", res.Authority)
	}
}

func TestLookupReferral(t *testing.T) {
	z := exampleZone(t)
	res := z.lookup("www.child.examp.le", dnswire.TypeA)
	if !res.Delegated || res.Authoritative {
		t.Fatalf("expected referral, got %+v", res)
	}
	if len(res.Authority) != 1 || res.Authority[0].Name != "child.examp.le" {
		t.Errorf("authority = %v", res.Authority)
	}
	if len(res.Additional) != 1 || res.Additional[0].Data.String() != "10.0.0.53" {
		t.Errorf("glue = %v", res.Additional)
	}
	// Below a nested cut the referral is still to the highest one.
	z.MustAdd(dnswire.RR{Name: "deep.child.examp.le", Type: dnswire.TypeNS, TTL: 3600, Data: dnswire.NS{Host: "ns.deep.test"}})
	res = z.lookup("www.deep.child.examp.le", dnswire.TypeA)
	if !res.Delegated || len(res.Authority) != 1 || res.Authority[0].Name != "child.examp.le" {
		t.Errorf("below a nested cut: %+v", res)
	}
}

// One Result reused across lookups of every kind reads as a fresh one
// each time: nothing of an earlier, longer answer survives.
func TestLookupIntoReusesResult(t *testing.T) {
	z := exampleZone(t)
	var res Result
	for _, q := range []struct {
		name  string
		qtype dnswire.Type
	}{
		{"www.child.examp.le", dnswire.TypeA}, {"examp.le", dnswire.TypeANY},
		{"alias.examp.le", dnswire.TypeA}, {"nope.examp.le", dnswire.TypeA},
		{"examp.le", dnswire.TypeA}, {"mail.examp.le", dnswire.TypeAAAA},
		{"www.examp.le", dnswire.TypeA}, {"other.example", dnswire.TypeA},
	} {
		z.LookupInto(&res, q.name, q.qtype)
		if got, want := fmt.Sprintf("%+v", res), fmt.Sprintf("%+v", z.lookup(q.name, q.qtype)); got != want {
			t.Errorf("%s %s: LookupInto into a used result = %s, into a fresh one = %s", q.name, q.qtype, got, want)
		}
	}
}

func TestLookupOutOfZone(t *testing.T) {
	z := exampleZone(t)
	res := z.lookup("other.example", dnswire.TypeA)
	if res.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", res.RCode)
	}
}

func TestLookupANY(t *testing.T) {
	z := exampleZone(t)
	res := z.lookup("examp.le", dnswire.TypeANY)
	if len(res.Answer) < 3 {
		t.Errorf("ANY answer = %v", res.Answer)
	}
}

func TestCNAMELoopBounded(t *testing.T) {
	z := MustNew("loop.test")
	z.MustAdd(dnswire.RR{Name: "a.loop.test", Type: dnswire.TypeCNAME, TTL: 1, Data: dnswire.CNAME{Target: "b.loop.test"}})
	z.MustAdd(dnswire.RR{Name: "b.loop.test", Type: dnswire.TypeCNAME, TTL: 1, Data: dnswire.CNAME{Target: "a.loop.test"}})
	res := z.lookup("a.loop.test", dnswire.TypeA) // must terminate
	if len(res.Answer) == 0 {
		t.Error("expected partial chain answer")
	}
	if len(res.Answer) > 2*maxCNAMEChain+2 {
		t.Errorf("chain not bounded: %d records", len(res.Answer))
	}
}

func TestAddRejectsOutOfZone(t *testing.T) {
	z := MustNew("examp.le")
	err := z.Add(dnswire.RR{Name: "other.test", Type: dnswire.TypeA, Data: dnswire.A{Addr: addr("10.0.0.1")}})
	if err == nil {
		t.Error("out-of-zone add accepted")
	}
}

func TestAddDeduplicates(t *testing.T) {
	z := MustNew("examp.le")
	rr := dnswire.RR{Name: "examp.le", Type: dnswire.TypeA, TTL: 60, Data: dnswire.A{Addr: addr("10.0.0.1")}}
	z.MustAdd(rr)
	z.MustAdd(rr)
	if got := len(z.lookup("examp.le", dnswire.TypeA).Answer); got != 1 {
		t.Errorf("len = %d, want 1 (dedup)", got)
	}
}

func TestConcurrentReaders(t *testing.T) {
	z := exampleZone(t)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 500; j++ {
				_ = z.lookup("alias.examp.le", dnswire.TypeA)
				_ = z.lookup("www.child.examp.le", dnswire.TypeA)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		z.MustAdd(dnswire.RR{Name: fmt.Sprintf("flap%d.examp.le", i), Type: dnswire.TypeA, TTL: 1, Data: dnswire.A{Addr: addr("10.9.9.9")}})
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

// TestLookupNeverPanics throws random names and types at a populated zone;
// every result must satisfy the basic RFC 1034 invariants.
func TestLookupNeverPanics(t *testing.T) {
	z := exampleZone(t)
	r := rand.New(rand.NewSource(7))
	labels := []string{"www", "mail", "alias", "child", "nope", "a", "examp", "le", "ns1", "*"}
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypeSOA, dnswire.TypeANY, dnswire.Type(250)}
	for i := 0; i < 5000; i++ {
		n := 1 + r.Intn(4)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = labels[r.Intn(len(labels))]
		}
		name := strings.Join(parts, ".")
		res := z.lookup(name, types[r.Intn(len(types))])
		switch res.RCode {
		case dnswire.RCodeNXDomain:
			if len(res.Answer) != 0 && res.Answer[0].Type != dnswire.TypeCNAME {
				t.Fatalf("%s: NXDOMAIN with non-CNAME answers", name)
			}
		case dnswire.RCodeNoError:
			if res.Delegated && res.Authoritative {
				t.Fatalf("%s: delegated AND authoritative", name)
			}
		case dnswire.RCodeRefused, dnswire.RCodeFormErr:
			// Out of zone or invalid name: fine.
		default:
			t.Fatalf("%s: unexpected rcode %v", name, res.RCode)
		}
	}
}

func TestWildcardSynthesis(t *testing.T) {
	// A parking zone: *.park.test answers every subdomain.
	z := MustNew("park.test")
	z.MustAdd(dnswire.RR{Name: "park.test", Type: dnswire.TypeSOA, TTL: 1, Data: dnswire.SOA{MName: "ns.park.test", RName: "h.park.test", Serial: 1}})
	z.MustAdd(dnswire.RR{Name: "*.park.test", Type: dnswire.TypeA, TTL: 60, Data: dnswire.A{Addr: addr("198.51.100.7")}})
	z.MustAdd(dnswire.RR{Name: "real.park.test", Type: dnswire.TypeA, TTL: 60, Data: dnswire.A{Addr: addr("198.51.100.8")}})

	// Synthesis: the answer's owner is the query name.
	res := z.lookup("anything.park.test", dnswire.TypeA)
	if res.RCode != dnswire.RCodeNoError || len(res.Answer) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Answer[0].Name != "anything.park.test" || res.Answer[0].Data.String() != "198.51.100.7" {
		t.Errorf("answer = %v", res.Answer[0])
	}
	// Existing names win over the wildcard.
	res = z.lookup("real.park.test", dnswire.TypeA)
	if res.Answer[0].Data.String() != "198.51.100.8" {
		t.Errorf("explicit record lost to wildcard: %v", res.Answer)
	}
	// Wildcard NODATA: the name is covered but the type is absent.
	res = z.lookup("anything.park.test", dnswire.TypeAAAA)
	if res.RCode != dnswire.RCodeNoError || len(res.Answer) != 0 {
		t.Errorf("wildcard NODATA = %+v", res)
	}
	// An existing closer encloser without a wildcard blocks synthesis:
	// sub.real.park.test must be NXDOMAIN (real.park.test exists).
	res = z.lookup("sub.real.park.test", dnswire.TypeA)
	if res.RCode != dnswire.RCodeNXDomain {
		t.Errorf("closer-encloser rule broken: %+v", res)
	}
	// Deep names are still covered when the intermediate does not exist.
	res = z.lookup("a.b.park.test", dnswire.TypeA)
	if res.RCode != dnswire.RCodeNoError || len(res.Answer) != 1 {
		t.Errorf("deep wildcard = %+v", res)
	}
	// The apex is not covered by its own child wildcard.
	res = z.lookup("park.test", dnswire.TypeA)
	if res.RCode != dnswire.RCodeNoError || len(res.Answer) != 0 {
		t.Errorf("apex synthesized: %+v", res)
	}
}
