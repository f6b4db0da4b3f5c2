// Package dnsserver implements an authoritative DNS server over the
// transport abstraction. One Server instance can be authoritative for many
// zones (a real DPS or hoster name server hosts millions); queries are
// routed to the zone with the longest matching origin suffix.
//
// The server is intentionally a pure responder: it answers from zone data
// via dnszone.Lookup, sets AA, returns referrals below zone cuts, and
// truncates oversized UDP responses with the TC bit, mirroring the
// behaviour the paper's measurement infrastructure observes from real
// authoritative servers.
package dnsserver

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/dnszone"
	"dpsadopt/internal/trace"
	"dpsadopt/internal/transport"
)

// Fault is a server-side fault a FaultInjector can order for one query.
type Fault int

// Server-side fault kinds.
const (
	// FaultNone answers normally.
	FaultNone Fault = iota
	// FaultServfail answers SERVFAIL without consulting zone data.
	FaultServfail
	// FaultSlow answers correctly but only after the injector's delay.
	FaultSlow
	// FaultTruncate forces TC on the UDP answer with cleared sections,
	// pushing the client to the RFC 1035 §4.2.2 TCP retry. TCP answers
	// are never truncated.
	FaultTruncate
	// FaultDrop reads the query and answers nothing.
	FaultDrop
)

var faultNames = [...]string{"none", "servfail", "slow", "truncate", "drop"}

// String names the fault.
func (f Fault) String() string {
	if int(f) < len(faultNames) {
		return faultNames[f]
	}
	return "unknown"
}

// FaultInjector decides a fault for each incoming query. Implementations
// must be safe for concurrent use; internal/chaos provides a seeded,
// deterministic one. The returned delay is only meaningful for FaultSlow.
type FaultInjector interface {
	QueryFault(qname string) (Fault, time.Duration)
}

// Server answers authoritative DNS queries for a set of zones.
type Server struct {
	mu    sync.RWMutex
	zones map[string]*dnszone.Zone

	// concurrency is the Serve worker-pool size (see SetConcurrency).
	concurrency int

	// faults, when set, is consulted for every UDP query (see SetFaults).
	faults atomic.Pointer[faultBox]

	// Queries counts handled queries (including refused ones).
	queries atomic.Int64
	// received counts datagrams read off the socket, before decode or
	// fault injection — Stop's drain guarantee is Received() == handled.
	received atomic.Int64
}

// faultBox wraps the injector so a nil interface can be stored atomically.
type faultBox struct{ fi FaultInjector }

// New creates an empty server.
func New() *Server {
	return &Server{zones: make(map[string]*dnszone.Zone)}
}

// AddZone makes the server authoritative for z, replacing any zone with
// the same origin.
func (s *Server) AddZone(z *dnszone.Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin] = z
}

// RemoveZone drops authority for the zone rooted at origin.
func (s *Server) RemoveZone(origin string) {
	o, err := dnswire.CanonicalName(origin)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.zones, o)
}

// Zone returns the zone with the given origin, if the server carries it.
func (s *Server) Zone(origin string) (*dnszone.Zone, bool) {
	o, err := dnswire.CanonicalName(origin)
	if err != nil {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	z, ok := s.zones[o]
	return z, ok
}

// ZoneCount returns the number of zones served.
func (s *Server) ZoneCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.zones)
}

// Queries returns the number of queries handled so far.
func (s *Server) Queries() int64 { return s.queries.Load() }

// Received returns the number of datagrams read off the server's sockets,
// whether or not they decoded to a query. After Stop drains, every
// received well-formed query has been handled.
func (s *Server) Received() int64 { return s.received.Load() }

// SetFaults installs (or, with nil, removes) a fault injector consulted
// for every UDP query. Safe to call while serving.
func (s *Server) SetFaults(fi FaultInjector) {
	if fi == nil {
		s.faults.Store(nil)
		return
	}
	s.faults.Store(&faultBox{fi: fi})
}

// faultFor consults the installed injector, if any.
func (s *Server) faultFor(qname string) (Fault, time.Duration) {
	if box := s.faults.Load(); box != nil {
		return box.fi.QueryFault(qname)
	}
	return FaultNone, 0
}

// findZone returns the zone whose origin is the longest suffix of qname.
func (s *Server) findZone(qname string) *dnszone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Walk from the full name toward the root, so the most specific zone
	// wins (a server can host both "examp.le" and "le").
	for cand := qname; ; cand = dnswire.Parent(cand) {
		if z, ok := s.zones[cand]; ok {
			return z
		}
		if cand == "." {
			return nil
		}
	}
}

// Handle answers a single query message. It never returns nil: malformed
// or unsupported queries produce FORMERR/NOTIMP/REFUSED responses.
func (s *Server) Handle(q *dnswire.Message) *dnswire.Message {
	s.queries.Add(1)
	mQueries.Inc()
	resp := q.Reply()
	if q.Flags.Response || len(q.Questions) != 1 {
		resp.Flags.RCode = dnswire.RCodeFormErr
		return resp
	}
	if q.Flags.OpCode != dnswire.OpQuery {
		resp.Flags.RCode = dnswire.RCodeNotImp
		return resp
	}
	question := q.Questions[0]
	qname, err := dnswire.CanonicalName(question.Name)
	if err != nil || question.Class != dnswire.ClassIN {
		resp.Flags.RCode = dnswire.RCodeFormErr
		return resp
	}
	z := s.findZone(qname)
	if z == nil {
		resp.Flags.RCode = dnswire.RCodeRefused
		return resp
	}
	res := z.Lookup(qname, question.Type)
	resp.Flags.RCode = res.RCode
	resp.Flags.Authoritative = res.Authoritative
	resp.Answers = res.Answer
	resp.Authority = res.Authority
	resp.Extra = res.Additional
	return resp
}

// maxPayload returns the response size limit advertised by the query's
// EDNS0 OPT record, or the classic 512-byte default.
func maxPayload(q *dnswire.Message) int {
	for _, rr := range q.Extra {
		if rr.Type == dnswire.TypeOPT {
			if size := int(rr.Class); size > dnswire.MaxUDPPayload {
				if size > transport.MTU {
					return transport.MTU
				}
				return size
			}
			return dnswire.MaxUDPPayload
		}
	}
	return dnswire.MaxUDPPayload
}

// packWithLimit packs resp into buf[:0], truncating it (clearing sections
// and setting TC) if it exceeds limit bytes.
func packWithLimit(resp *dnswire.Message, limit int, buf []byte) ([]byte, error) {
	wire, err := resp.AppendPack(buf[:0])
	if err != nil {
		return nil, err
	}
	if len(wire) <= limit {
		return wire, nil
	}
	trunc := *resp
	trunc.Flags.Truncated = true
	trunc.Answers = nil
	trunc.Authority = nil
	trunc.Extra = nil
	return trunc.AppendPack(wire[:0])
}

// Concurrency is the number of goroutines handling queries per Serve
// loop; 1 (the default when unset) handles queries inline. Set before
// Serve starts.
func (s *Server) SetConcurrency(n int) {
	if n > 0 {
		s.concurrency = n
	}
}

// Serve reads queries from conn and writes responses until conn is closed.
// It is typically run in its own goroutine per simulated server address.
// With SetConcurrency(n>1), decoding and answering happen in a worker
// pool while the loop keeps reading. When the conn closes, Serve drains:
// every datagram already read is still decoded and answered (the answers
// to a closed conn are discarded by the transport, but handling completes
// — queries are never abandoned mid-flight), and Serve returns only after
// all workers have exited.
func (s *Server) Serve(conn transport.Conn) error {
	workers := s.concurrency
	if workers <= 1 {
		return s.serveInline(conn)
	}
	type job struct {
		data []byte
		from netip.AddrPort
	}
	jobs := make(chan job, workers*2)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []byte
			for j := range jobs {
				out = s.answer(conn, j.data, j.from, out)
			}
		}()
	}
	buf := make([]byte, transport.MTU)
	var err error
	for {
		var n int
		var from netip.AddrPort
		n, from, err = conn.ReadFrom(buf, 0)
		if err != nil {
			break
		}
		s.received.Add(1)
		jobs <- job{data: append([]byte(nil), buf[:n]...), from: from}
	}
	close(jobs)
	wg.Wait()
	if err == transport.ErrClosed {
		return nil
	}
	return fmt.Errorf("dnsserver: read: %w", err)
}

func (s *Server) serveInline(conn transport.Conn) error {
	buf := make([]byte, transport.MTU)
	var out []byte
	for {
		n, from, err := conn.ReadFrom(buf, 0)
		if err != nil {
			if err == transport.ErrClosed {
				return nil
			}
			return fmt.Errorf("dnsserver: read: %w", err)
		}
		s.received.Add(1)
		out = s.answer(conn, buf[:n], from, out)
	}
}

// answer decodes, handles, and responds to one datagram; malformed input
// is dropped as real servers do. When a process tracer is installed
// (trace.SetDefault) the query is recorded as a `dnsserver.handle` root
// span, sampled by qname with the same deterministic hash the client
// side uses, so server-side traces exist for the same sampled names.
// When a fault injector is installed, its verdict is applied here —
// before zone lookup for drops, after it for truncation — and recorded
// as a `chaos` span attribute so injected faults are visible in traces.
// The response is packed into out, the serve loop's own buffer (the
// transport does not retain it past WriteTo), which answer returns for
// the next call, grown if need be.
func (s *Server) answer(conn transport.Conn, data []byte, from netip.AddrPort, out []byte) []byte {
	q, err := dnswire.Unpack(data)
	if err != nil {
		return out
	}
	var qname string
	if len(q.Questions) == 1 {
		if qn, err := dnswire.CanonicalName(q.Questions[0].Name); err == nil {
			qname = qn
		}
	}
	var sp *trace.Span
	if tr := trace.Default(); tr != nil && qname != "" && tr.SampleName(qname) {
		_, sp = tr.StartRoot(context.Background(), "dnsserver.handle",
			trace.Str("qname", qname),
			trace.Str("qtype", q.Questions[0].Type.String()),
			trace.Str("client", from.String()))
	}
	fault, delay := FaultNone, time.Duration(0)
	if qname != "" {
		fault, delay = s.faultFor(qname)
	}
	if fault != FaultNone {
		sp.SetAttr(trace.Str("chaos", fault.String()))
	}
	switch fault {
	case FaultDrop:
		sp.End()
		return out
	case FaultSlow:
		time.Sleep(delay)
	}
	var resp *dnswire.Message
	if fault == FaultServfail {
		s.queries.Add(1)
		mQueries.Inc()
		resp = q.Reply()
		resp.Flags.RCode = dnswire.RCodeServFail
	} else {
		resp = s.Handle(q)
	}
	if fault == FaultTruncate {
		resp.Flags.Truncated = true
		resp.Answers, resp.Authority, resp.Extra = nil, nil, nil
	}
	if sp != nil {
		sp.SetAttr(trace.Str("rcode", resp.Flags.RCode.String()))
	}
	wire, err := packWithLimit(resp, maxPayload(q), out)
	if err != nil {
		sp.End()
		return out
	}
	_ = conn.WriteTo(wire, from)
	sp.End()
	return wire
}

// Running wraps a Server bound to an address with lifecycle management.
type Running struct {
	Server *Server
	conn   transport.Conn
	done   chan struct{}
	err    error
}

// Start binds srv at addr on the network and serves it in a goroutine.
func Start(srv *Server, net transport.Network, addr string) (*Running, error) {
	conn, err := listen(net, addr)
	if err != nil {
		return nil, err
	}
	r := &Running{Server: srv, conn: conn, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.err = srv.Serve(conn)
	}()
	return r, nil
}

// drainTimeout bounds how long Stop waits for in-flight queries. It is a
// deadlock backstop, not a drop policy: a drain that needs this long
// means a handler is wedged, and Stop reports it as an error instead of
// silently abandoning goroutines.
const drainTimeout = 30 * time.Second

// Stop closes the listener and waits for the serve loop — including all
// worker goroutines and their queued queries — to drain completely.
func (r *Running) Stop() error {
	r.conn.Close()
	select {
	case <-r.done:
	case <-time.After(drainTimeout):
		return fmt.Errorf("dnsserver: stop: drain timed out after %v with queries in flight", drainTimeout)
	}
	return r.err
}

func listen(net transport.Network, addr string) (transport.Conn, error) {
	ap, err := parseListenAddr(addr)
	if err != nil {
		return nil, err
	}
	return net.Listen(ap)
}
