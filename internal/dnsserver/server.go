// Package dnsserver implements an authoritative DNS server over the
// transport abstraction. One Server instance can be authoritative for many
// zones (a real DPS or hoster name server hosts millions); queries are
// routed to the zone with the longest matching origin suffix.
//
// The server is intentionally a pure responder: it answers from zone data
// via dnszone.LookupInto, sets AA, returns referrals below zone cuts, and
// truncates oversized UDP responses with the TC bit, mirroring the
// behaviour the paper's measurement infrastructure observes from real
// authoritative servers.
package dnsserver

import (
	"context"
	"errors"
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
	// FaultSlow answers correctly, but the answer is sent only after the
	// injector's delay; the server meanwhile answers other queries.
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

// FaultInjector decides a fault for each incoming query, given the
// querying client's address and the canonical qname. Implementations
// must be safe for concurrent use; internal/chaos provides a seeded,
// deterministic one. The returned delay is only meaningful for FaultSlow.
type FaultInjector interface {
	QueryFault(from netip.AddrPort, qname string) (Fault, time.Duration)
}

// Server answers authoritative DNS queries for a set of zones.
type Server struct {
	mu    sync.RWMutex
	zones map[string]*dnszone.Zone

	// faults, when set, is consulted for every UDP query (see SetFaults).
	faults atomic.Pointer[faultBox]
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
func (s *Server) faultFor(from netip.AddrPort, qname string) (Fault, time.Duration) {
	if box := s.faults.Load(); box != nil {
		return box.fi.QueryFault(from, qname)
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
	resp := q.Reply()
	s.respond(resp, q.Flags, new(dnszone.Result))
	return resp
}

// respond counts one query and fills resp, a reply skeleton to a query
// with the given flags (dnswire.Message.SetReply), with its answer. The
// zone's sections are looked up into res, so resp shares their storage.
func (s *Server) respond(resp *dnswire.Message, query dnswire.Flags, res *dnszone.Result) {
	mQueries.Inc()
	if query.Response || len(resp.Questions) != 1 {
		resp.Flags.RCode = dnswire.RCodeFormErr
		return
	}
	if query.OpCode != dnswire.OpQuery {
		resp.Flags.RCode = dnswire.RCodeNotImp
		return
	}
	question := resp.Questions[0]
	qname, err := dnswire.CanonicalName(question.Name)
	if err != nil || question.Class != dnswire.ClassIN {
		resp.Flags.RCode = dnswire.RCodeFormErr
		return
	}
	z := s.findZone(qname)
	if z == nil {
		resp.Flags.RCode = dnswire.RCodeRefused
		return
	}
	z.LookupInto(res, qname, question.Type)
	resp.Flags.RCode = res.RCode
	resp.Flags.Authoritative = res.Authoritative
	resp.Answers = res.Answer
	resp.Authority = res.Authority
	resp.Extra = res.Additional
}

// maxPayload returns the response size limit for a query advertising the
// given EDNS0 payload size (0 without an OPT record): at least the
// classic 512 bytes, at most the transport's MTU.
func maxPayload(ednsSize int) int {
	return min(max(ednsSize, dnswire.MaxUDPPayload), transport.MTU)
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

// serve reads queries from conn and answers each in turn until conn is
// closed: the path for kernel sockets, which cannot call a handler in the
// sender's goroutine.
func (s *Server) serve(conn transport.Conn) error {
	buf := make([]byte, transport.MTU)
	for {
		n, from, err := conn.ReadFrom(buf, 0)
		if err != nil {
			if err == transport.ErrClosed {
				return nil
			}
			return fmt.Errorf("dnsserver: read: %w", err)
		}
		s.answer(conn, buf[:n], from)
	}
}

// scratch is one answer's working memory: the decoded query, the reply,
// the zone's result sections it shares and the packed bytes.
type scratch struct {
	query, reply dnswire.Message
	res          dnszone.Result
	out          []byte
}

// scratches keeps answers' scratch across garbage collections; a
// sync.Pool would drop it at each GC and make the wire path's allocation
// a function of GC timing. Inline, one answer is in flight per sending
// resolver (a run has a few to a few dozen), so 64 keeps one for each;
// answers beyond that allocate theirs and drop it.
var scratches = make(chan *scratch, 64)

func getScratch() *scratch {
	select {
	case sc := <-scratches:
		return sc
	default:
		return new(scratch)
	}
}

// release clears what sc holds of the query and the zones, so the free
// list pins neither, and returns sc to it.
func (sc *scratch) release() {
	clear(sc.query.Questions)
	clear(sc.res.Answer)
	clear(sc.res.Authority)
	clear(sc.res.Additional)
	sc.reply = dnswire.Message{}
	select {
	case scratches <- sc:
	default:
	}
}

// answer decodes, handles, and responds to one datagram; malformed input
// is dropped as real servers do. It is the one answer body: a transport
// that dispatches inline calls it in the sender's goroutine, and serve
// calls it for kernel sockets. When a process tracer is installed
// (trace.SetDefault) the query is recorded as a `dnsserver.handle` root
// span, sampled by qname with the same deterministic hash the client
// side uses, so server-side traces exist for the same sampled names.
// When a fault injector is installed, its verdict is applied here —
// before zone lookup for drops, after it for truncation — and recorded
// as a `chaos` span attribute so injected faults are visible in traces.
// A slow answer is packed at once and sent from a timer, so it delays
// neither the server's other queries nor, inline, its sender's goroutine.
// Decoding, lookup and packing reuse a scratch from the free list: the
// question's name is the one allocation of an answer.
func (s *Server) answer(conn transport.Conn, data []byte, from netip.AddrPort) {
	sc := getScratch()
	defer sc.release()
	q := &sc.query
	ednsSize, err := dnswire.UnpackQuery(data, q)
	if err != nil {
		return
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
	defer sp.End()
	fault, delay := FaultNone, time.Duration(0)
	if qname != "" {
		fault, delay = s.faultFor(from, qname)
	}
	if fault != FaultNone {
		sp.SetAttr(trace.Str("chaos", fault.String()))
	}
	if fault == FaultDrop {
		return
	}
	resp := &sc.reply
	resp.SetReply(q)
	if fault == FaultServfail {
		mQueries.Inc()
		resp.Flags.RCode = dnswire.RCodeServFail
	} else {
		s.respond(resp, q.Flags, &sc.res)
	}
	if fault == FaultTruncate {
		resp.Flags.Truncated = true
		resp.Answers, resp.Authority, resp.Extra = nil, nil, nil
	}
	if sp != nil {
		sp.SetAttr(trace.Str("rcode", resp.Flags.RCode.String()))
	}
	wire, err := packWithLimit(resp, maxPayload(ednsSize), sc.out)
	if err != nil {
		return
	}
	sc.out = wire
	if fault == FaultSlow {
		held := append([]byte(nil), wire...)
		time.AfterFunc(delay, func() { _ = conn.WriteTo(held, from) })
		return
	}
	_ = conn.WriteTo(wire, from)
}

// Running wraps a Server bound to an address with lifecycle management.
type Running struct {
	Server *Server
	conn   transport.Conn
	done   chan struct{} // closed when serve returns; nil when answering inline
	err    error
}

// Start binds srv at addr on the network. On a network that can answer
// inline (transport.HandlerNetwork: Mem, and chaos over Mem) every query
// is answered in its sender's goroutine; on kernel sockets a goroutine
// reads the socket and answers each datagram in turn.
func Start(srv *Server, network transport.Network, addr string) (*Running, error) {
	ap, err := parseListenAddr(addr)
	if err != nil {
		return nil, err
	}
	r := &Running{Server: srv}
	if hn, ok := network.(transport.HandlerNetwork); ok {
		r.conn, err = hn.ListenHandler(ap, func(conn transport.Conn) transport.Handler {
			return func(p []byte, from netip.AddrPort) { srv.answer(conn, p, from) }
		})
		if err == nil {
			return r, nil
		}
		if !errors.Is(err, transport.ErrNoHandler) {
			return nil, err
		}
	}
	if r.conn, err = network.Listen(ap); err != nil {
		return nil, err
	}
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		r.err = srv.serve(r.conn)
	}()
	return r, nil
}

// drainTimeout bounds how long Stop waits for the serve loop. It is a
// deadlock backstop, not a drop policy: a drain that needs this long
// means a handler is wedged, and Stop reports it as an error instead of
// silently abandoning goroutines.
const drainTimeout = 30 * time.Second

// Stop closes the listener and waits until no query is being answered:
// inline, Close itself waits for the answers in flight; on a kernel
// socket, Stop waits for the serve loop to finish the datagram it holds.
// A slow answer already scheduled is a datagram in flight, and is sent
// unless the transport refuses writes on a closed conn.
func (r *Running) Stop() error {
	r.conn.Close()
	if r.done == nil {
		return nil
	}
	select {
	case <-r.done:
	case <-time.After(drainTimeout):
		return fmt.Errorf("dnsserver: stop: drain timed out after %v with queries in flight", drainTimeout)
	}
	return r.err
}
