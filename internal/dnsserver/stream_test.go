package dnsserver

import (
	"net/netip"
	"testing"

	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/transport"
)

func startStreamServer(t *testing.T) (*transport.Mem, netip.AddrPort) {
	t.Helper()
	network := transport.NewMem(41)
	s := New()
	s.AddZone(testZone())
	run, err := Start(s, network, "10.0.0.3")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { run.Stop() })
	stream, err := StartStream(s, network, "10.0.0.3")
	if err != nil || stream == nil {
		t.Fatalf("StartStream: %v", err)
	}
	t.Cleanup(func() { stream.Stop() })
	return network, netip.MustParseAddrPort("10.0.0.3:53")
}

func TestStreamQuery(t *testing.T) {
	network, server := startStreamServer(t)
	conn, err := network.DialStream(netip.MustParseAddr("10.9.0.7"), server)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(77, "www.examp.le", dnswire.TypeA)
	wire, _ := q.Pack()
	if err := dnswire.WriteFramed(conn, wire); err != nil {
		t.Fatal(err)
	}
	msg, err := dnswire.ReadFramed(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(msg)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 77 || len(resp.Answers) != 1 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestStreamGarbageDropsConnection(t *testing.T) {
	network, server := startStreamServer(t)
	conn, err := network.DialStream(netip.MustParseAddr("10.9.0.8"), server)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A framed blob that is not a DNS message: the server closes.
	if err := dnswire.WriteFramed(conn, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := dnswire.ReadFramed(conn); err == nil {
		t.Error("expected closed connection after garbage")
	}
}

// An AXFR question gets no zone transfer: it is answered by the same
// lookup as any other type, in one message, and the connection goes on
// answering.
func TestStreamAXFRAnsweredLikeAnyType(t *testing.T) {
	network, server := startStreamServer(t)
	conn, err := network.DialStream(netip.MustParseAddr("10.9.0.9"), server)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ref := New()
	ref.AddZone(testZone())
	for _, q := range []*dnswire.Message{
		dnswire.NewQuery(5, "examp.le", dnswire.TypeAXFR),
		dnswire.NewQuery(6, "www.examp.le", dnswire.TypeA),
	} {
		wire, _ := q.Pack()
		if err := dnswire.WriteFramed(conn, wire); err != nil {
			t.Fatal(err)
		}
		msg, err := dnswire.ReadFramed(conn)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dnswire.Unpack(msg)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != q.ID || !resp.Flags.Response || len(resp.Questions) != 1 || resp.Questions[0] != q.Questions[0] {
			t.Fatalf("%s: reply %+v does not answer query %d", q.Questions[0].Type, resp, q.ID)
		}
		want := ref.Handle(q)
		if resp.Flags.RCode != want.Flags.RCode || len(resp.Answers) != len(want.Answers) || len(resp.Authority) != len(want.Authority) {
			t.Errorf("%s: stream reply %+v, Handle gives %+v", q.Questions[0].Type, resp, want)
		}
	}
}
