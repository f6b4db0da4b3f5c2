//go:build !race

package dnsserver

import (
	"net/netip"
	"testing"
	"time"

	"dpsadopt/internal/dnswire"
)

// sinkConn is a transport.Conn that swallows what the server sends.
type sinkConn struct{ last int }

func (c *sinkConn) WriteTo(p []byte, _ netip.AddrPort) error { c.last = len(p); return nil }
func (c *sinkConn) ReadFrom([]byte, time.Duration) (int, netip.AddrPort, error) {
	panic("sinkConn: ReadFrom")
}
func (c *sinkConn) LocalAddr() netip.AddrPort { return netip.AddrPort{} }
func (c *sinkConn) Close() error              { return nil }

// The server's half of a round trip: decode the query, look it up, pack
// the response into scratch from the free list. Not under -race: the race
// runtime drops a random share of sync.Pool puts, and the packer draws its
// compressor from dnswire's compPool.
func TestAllocsAnswer(t *testing.T) {
	s := New()
	s.AddZone(testZone())
	q := dnswire.NewQuery(7, "www.examp.le", dnswire.TypeA)
	q.Extra = []dnswire.RR{{Name: ".", Type: dnswire.TypeOPT, Class: 4096, Data: dnswire.OPT{}}}
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	conn := &sinkConn{}
	from := netip.MustParseAddrPort("10.9.0.1:40000")
	s.answer(conn, wire, from)
	if conn.last == 0 {
		t.Fatal("answer sent nothing")
	}
	got := testing.AllocsPerRun(200, func() { s.answer(conn, wire, from) })
	// What is left is the question's name: 1 at the last count.
	if got > 2 {
		t.Errorf("answer: %v allocs, want <= 2", got)
	}
}
