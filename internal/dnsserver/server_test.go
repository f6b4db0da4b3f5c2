package dnsserver

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/dnszone"
	"dpsadopt/internal/transport"
)

func testZone() *dnszone.Zone {
	z := dnszone.MustNew("examp.le")
	z.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeSOA, TTL: 3600, Data: dnswire.SOA{
		MName: "ns.registr.ar", RName: "hostmaster.examp.le", Serial: 1,
		Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeNS, TTL: 3600, Data: dnswire.NS{Host: "ns.registr.ar"}})
	z.MustAdd(dnswire.RR{Name: "www.examp.le", Type: dnswire.TypeA, TTL: 300, Data: dnswire.A{Addr: netip.MustParseAddr("10.0.0.1")}})
	return z
}

func TestHandlePositive(t *testing.T) {
	s := New()
	s.AddZone(testZone())
	q := dnswire.NewQuery(1, "www.examp.le", dnswire.TypeA)
	before := mQueries.Value()
	r := s.Handle(q)
	if r.Flags.RCode != dnswire.RCodeNoError || !r.Flags.Authoritative || !r.Flags.Response {
		t.Fatalf("bad response: %+v", r.Flags)
	}
	if len(r.Answers) != 1 || r.Answers[0].Data.String() != "10.0.0.1" {
		t.Errorf("answers = %v", r.Answers)
	}
	if r.ID != 1 {
		t.Errorf("ID = %d", r.ID)
	}
	if got := mQueries.Value() - before; got != 1 {
		t.Errorf("queries counted = %d", got)
	}
}

func TestHandleRefusesForeign(t *testing.T) {
	s := New()
	s.AddZone(testZone())
	r := s.Handle(dnswire.NewQuery(2, "other.test", dnswire.TypeA))
	if r.Flags.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v", r.Flags.RCode)
	}
}

func TestHandleMalformed(t *testing.T) {
	s := New()
	s.AddZone(testZone())
	// A "query" that is itself a response.
	q := dnswire.NewQuery(3, "www.examp.le", dnswire.TypeA)
	q.Flags.Response = true
	if r := s.Handle(q); r.Flags.RCode != dnswire.RCodeFormErr {
		t.Errorf("response-as-query rcode = %v", r.Flags.RCode)
	}
	// No questions.
	if r := s.Handle(&dnswire.Message{ID: 4}); r.Flags.RCode != dnswire.RCodeFormErr {
		t.Errorf("no-question rcode = %v", r.Flags.RCode)
	}
	// Unsupported opcode.
	q2 := dnswire.NewQuery(5, "www.examp.le", dnswire.TypeA)
	q2.Flags.OpCode = dnswire.OpStatus
	if r := s.Handle(q2); r.Flags.RCode != dnswire.RCodeNotImp {
		t.Errorf("status opcode rcode = %v", r.Flags.RCode)
	}
}

func TestLongestSuffixZoneSelection(t *testing.T) {
	s := New()
	parent := dnszone.MustNew("le")
	parent.MustAdd(dnswire.RR{Name: "examp.le", Type: dnswire.TypeNS, TTL: 1, Data: dnswire.NS{Host: "ns.elsewhere.test"}})
	s.AddZone(parent)
	s.AddZone(testZone())
	r := s.Handle(dnswire.NewQuery(6, "www.examp.le", dnswire.TypeA))
	if !r.Flags.Authoritative || len(r.Answers) != 1 {
		t.Errorf("expected child-zone authoritative answer, got %+v", r)
	}
	// A name under "le" but not under the "examp.le" cut is answered by
	// the parent zone: an authoritative NXDOMAIN.
	r = s.Handle(dnswire.NewQuery(7, "www.examp2.le", dnswire.TypeA))
	if !r.Flags.Authoritative || r.Flags.RCode != dnswire.RCodeNXDomain {
		t.Errorf("parent zone answer: AA=%v rcode=%v", r.Flags.Authoritative, r.Flags.RCode)
	}
	// A name under the cut gets a referral (not authoritative) from a
	// server that carries only the parent.
	parentOnly := New()
	parentOnly.AddZone(parent)
	r = parentOnly.Handle(dnswire.NewQuery(8, "www.examp.le", dnswire.TypeA))
	if r.Flags.Authoritative || len(r.Authority) != 1 || r.Authority[0].Type != dnswire.TypeNS {
		t.Errorf("expected referral from parent, got %+v", r)
	}
}

func TestTruncation(t *testing.T) {
	s := New()
	z := dnszone.MustNew("big.test")
	// 60 A records: ~60*16 bytes of answer, beyond 512.
	for i := 0; i < 60; i++ {
		z.MustAdd(dnswire.RR{Name: "big.test", Type: dnswire.TypeA, TTL: 1,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 0, byte(i / 256), byte(i % 256)})}})
	}
	s.AddZone(z)
	q := dnswire.NewQuery(9, "big.test", dnswire.TypeA)
	resp := s.Handle(q)
	wire, err := packWithLimit(resp, maxPayload(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) > dnswire.MaxUDPPayload {
		t.Fatalf("wire = %d bytes", len(wire))
	}
	m, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Flags.Truncated || len(m.Answers) != 0 {
		t.Errorf("expected truncated empty response, got TC=%v answers=%d", m.Flags.Truncated, len(m.Answers))
	}
	// The serve loops hand in their own buffer; the truncated re-pack
	// goes into it too and yields the same bytes.
	scratch := bytes.Repeat([]byte{0xEE}, 64)
	reused, err := packWithLimit(resp, maxPayload(0), scratch)
	if err != nil || !bytes.Equal(reused, wire) {
		t.Errorf("packWithLimit into a used buffer = %x, %v; want %x", reused, err, wire)
	}
	// With EDNS0 advertising 4096, the full response fits.
	wire, err = packWithLimit(resp, maxPayload(4096), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err = dnswire.Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if m.Flags.Truncated || len(m.Answers) != 60 {
		t.Errorf("EDNS response TC=%v answers=%d", m.Flags.Truncated, len(m.Answers))
	}
}

func exchange(t *testing.T, net transport.Network, client netip.Addr, server netip.AddrPort, q *dnswire.Message) *dnswire.Message {
	t.Helper()
	c, err := net.Dial(client)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteTo(wire, server); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, transport.MTU)
	n, _, err := c.ReadFrom(buf, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestServeOverMemNetwork(t *testing.T) {
	net := transport.NewMem(1)
	s := New()
	s.AddZone(testZone())
	run, err := Start(s, net, "10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stop()
	resp := exchange(t, net, netip.MustParseAddr("10.9.0.1"), netip.MustParseAddrPort("10.0.0.1:53"), dnswire.NewQuery(11, "www.examp.le", dnswire.TypeA))
	if len(resp.Answers) != 1 || resp.Answers[0].Data.String() != "10.0.0.1" {
		t.Errorf("answers = %v", resp.Answers)
	}
}

func TestServeOverUDP(t *testing.T) {
	net := transport.NewMappedUDP()
	s := New()
	s.AddZone(testZone())
	run, err := Start(s, net, "10.0.0.1")
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	defer run.Stop()
	resp := exchange(t, net, netip.MustParseAddr("10.9.0.1"), netip.MustParseAddrPort("10.0.0.1:53"), dnswire.NewQuery(12, "www.examp.le", dnswire.TypeA))
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %v", resp.Answers)
	}
}

func TestServeIgnoresGarbage(t *testing.T) {
	net := transport.NewMem(1)
	s := New()
	s.AddZone(testZone())
	run, err := Start(s, net, "10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stop()
	c, _ := net.Dial(netip.MustParseAddr("10.9.0.1"))
	defer c.Close()
	// Garbage first; the server must survive and answer the next query.
	_ = c.WriteTo([]byte{1, 2, 3}, netip.MustParseAddrPort("10.0.0.1:53"))
	resp := exchange(t, net, netip.MustParseAddr("10.9.0.2"), netip.MustParseAddrPort("10.0.0.1:53"), dnswire.NewQuery(13, "examp.le", dnswire.TypeSOA))
	if resp.Flags.RCode != dnswire.RCodeNoError {
		t.Errorf("rcode = %v", resp.Flags.RCode)
	}
}

func TestParseListenAddr(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"10.0.0.1", "10.0.0.1:53", false},
		{"10.0.0.1:5353", "10.0.0.1:5353", false},
		{"127.0.0.1:0", "127.0.0.1:0", false},
		{"nonsense", "", true},
	}
	for _, c := range cases {
		got, err := parseListenAddr(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseListenAddr(%q) accepted", c.in)
			}
			continue
		}
		if err != nil || got.String() != c.want {
			t.Errorf("parseListenAddr(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestServeConcurrent(t *testing.T) {
	net := transport.NewMem(21)
	s := New()
	s.AddZone(testZone())
	run, err := Start(s, net, "10.0.0.9")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stop()
	before := mQueries.Value()
	done := make(chan bool, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			for j := 0; j < 30; j++ {
				resp := exchange(t, net, netip.AddrFrom4([4]byte{10, 9, 1, byte(i)}), netip.MustParseAddrPort("10.0.0.9:53"), dnswire.NewQuery(uint16(i*100+j), "www.examp.le", dnswire.TypeA))
				if len(resp.Answers) != 1 {
					done <- false
					return
				}
			}
			done <- true
		}(i)
	}
	for i := 0; i < 16; i++ {
		if !<-done {
			t.Fatal("concurrent exchange failed")
		}
	}
	if got := mQueries.Value() - before; got != 16*30 {
		t.Errorf("queries counted = %d", got)
	}
}
