// Package dnsclient implements the measuring resolver used by the active
// DNS measurement pipeline. It performs iterative resolution from a set of
// root servers: following referrals down zone cuts, resolving glueless name
// servers, chasing CNAME chains across zones, and retrying lost datagrams —
// capturing the full answer expansion exactly as the paper's measurement
// system stores it (§3.1: "All fields from the answer section of a DNS
// response are stored, which includes CNAMEs and their full expansions").
package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/trace"
	"dpsadopt/internal/transport"
)

// Tunables with sensible defaults; see NewResolver.
const (
	DefaultTimeout  = 500 * time.Millisecond
	DefaultRetries  = 2
	defaultMaxSteps = 24 // referral hops across one resolution
	maxCNAMEHops    = 8  // cross-zone CNAME restarts
	maxGlueDepth    = 3  // recursion when resolving glueless NS hosts

	// DefaultBackoff is the base delay before the first retransmission;
	// each further retry doubles it (capped at DefaultMaxBackoff), with
	// deterministic jitter drawn from the resolver's seeded PRNG.
	DefaultBackoff    = 10 * time.Millisecond
	DefaultMaxBackoff = 200 * time.Millisecond
	// DefaultRetryBudget caps retransmissions across one whole resolution
	// (all referral steps and glue chases included), so a resolution
	// through dead infrastructure fails fast instead of stalling a
	// measurement day: at most budget × timeout extra wall time.
	DefaultRetryBudget = 16
)

// Errors returned by resolution.
var (
	ErrNoServers  = errors.New("dnsclient: no servers to query")
	ErrExhausted  = errors.New("dnsclient: retries exhausted")
	ErrTooManyRef = errors.New("dnsclient: referral limit exceeded")
	ErrBudget     = errors.New("dnsclient: resolution retry budget exhausted")
	ErrRCode      = errors.New("dnsclient: every server answered with an error rcode")
)

// Result is the outcome of resolving one (name, type) pair.
type Result struct {
	RCode dnswire.RCode
	// Records holds the complete answer expansion: every answer-section
	// record collected across CNAME restarts, in chain order.
	Records []dnswire.RR
	// Queries counts datagrams sent to obtain this result.
	Queries int
	// Timeouts counts attempts that expired without a response.
	Timeouts int

	// budget is the remaining retransmission allowance for this
	// resolution, shared across referral steps and glue chases.
	budget int
}

// takeRetry consumes one retransmission from the resolution budget.
func (r *Result) takeRetry() bool {
	if r.budget <= 0 {
		return false
	}
	r.budget--
	return true
}

// Resolver performs iterative resolution. It is not safe for concurrent
// use: the measurement pipeline creates one Resolver per worker.
type Resolver struct {
	Timeout  time.Duration
	Retries  int
	MaxSteps int
	// UDPSize is the EDNS0 payload size advertised on queries; answers
	// larger than this arrive truncated and are retried over TCP when
	// the network supports streams. Defaults to the transport MTU.
	UDPSize int
	// Backoff/MaxBackoff shape the exponential retransmission delay; a
	// zero Backoff disables backoff sleeps entirely (retries fire
	// immediately, the pre-hardening behaviour).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// RetryBudget caps retransmissions per resolution (see
	// DefaultRetryBudget); 0 or negative means unlimited.
	RetryBudget int

	net   transport.Network
	conn  transport.Conn
	roots []netip.AddrPort
	rng   *rand.Rand
	buf   []byte
	// wire is the scratch each exchange packs its query into; the
	// transport does not retain it past WriteTo.
	wire []byte

	// cache maps a zone origin to the addresses of its authoritative
	// servers, learned from referrals. It makes measuring a whole TLD
	// tractable: the TLD referral is taken once, not per domain.
	cache map[string][]netip.AddrPort

	// health scores every server this resolver has exchanged with and
	// runs the per-server circuit breaker.
	health *healthTable
	// rot rotates the starting server across resolutions for fairness.
	rot uint64

	// queries counts datagrams sent, for stats. Atomic so a stats
	// scraper (or a future shared-resolver caller) can read it while
	// the resolver is mid-resolution without racing. timeouts,
	// resolutions and giveups feed the per-day failure accounting.
	queries     atomic.Int64
	timeouts    atomic.Int64
	resolutions atomic.Int64
	giveups     atomic.Int64
}

// NewResolver creates a resolver bound to an ephemeral port on local,
// seeded for reproducible query IDs.
func NewResolver(network transport.Network, local netip.Addr, roots []netip.AddrPort, seed int64) (*Resolver, error) {
	if len(roots) == 0 {
		return nil, ErrNoServers
	}
	conn, err := network.Dial(local)
	if err != nil {
		return nil, err
	}
	return &Resolver{
		Timeout:     DefaultTimeout,
		Retries:     DefaultRetries,
		MaxSteps:    defaultMaxSteps,
		UDPSize:     transport.MTU,
		Backoff:     DefaultBackoff,
		MaxBackoff:  DefaultMaxBackoff,
		RetryBudget: DefaultRetryBudget,
		net:         network,
		conn:        conn,
		roots:       append([]netip.AddrPort(nil), roots...),
		rng:         rand.New(rand.NewSource(seed)),
		buf:         make([]byte, transport.MTU),
		cache:       make(map[string][]netip.AddrPort),
		health:      newHealthTable(),
	}, nil
}

// Close releases the resolver's socket.
func (r *Resolver) Close() error { return r.conn.Close() }

// QueriesSent returns the total number of query datagrams sent. Safe to
// call concurrently with an in-flight resolution.
func (r *Resolver) QueriesSent() int64 { return r.queries.Load() }

// TimeoutsSeen returns the total attempts that expired unanswered — the
// "lost" column of the per-day failure accounting. Safe concurrently.
func (r *Resolver) TimeoutsSeen() int64 { return r.timeouts.Load() }

// Resolutions returns the number of Resolve calls made. Safe concurrently.
func (r *Resolver) Resolutions() int64 { return r.resolutions.Load() }

// GiveUps returns the number of resolutions that returned an error — the
// "gave-up" column of the per-day failure accounting. Safe concurrently.
func (r *Resolver) GiveUps() int64 { return r.giveups.Load() }

// Resolve iteratively resolves name/qtype, chasing CNAMEs across zones.
// The context carries cancellation (checked between datagram exchanges)
// and the active trace span: when the caller's context holds a sampled
// span, the resolution is recorded as a `dnsclient.resolve` span with
// `transport.send` children per datagram exchange.
func (r *Resolver) Resolve(ctx context.Context, name string, qtype dnswire.Type) (*Result, error) {
	qname, err := dnswire.CanonicalName(name)
	if err != nil {
		return nil, err
	}
	// Span attributes are built only under a sampled span; sp is nil otherwise.
	var sp *trace.Span
	if trace.SpanFromContext(ctx) != nil {
		ctx, sp = trace.StartSpan(ctx, "dnsclient.resolve",
			trace.Str("name", qname), trace.Str("qtype", qtype.String()))
		defer sp.End()
	}
	r.rot++ // rotate the starting server across resolutions
	r.resolutions.Add(1)
	budget := r.RetryBudget
	if budget <= 0 {
		budget = int(^uint(0) >> 1) // unlimited
	}
	res := &Result{RCode: dnswire.RCodeNoError, budget: budget}
	var seen [maxCNAMEHops + 1]string
	for hop := range seen {
		if slices.Contains(seen[:hop], qname) {
			break // CNAME loop across zones
		}
		seen[hop] = qname
		resp, err := r.resolveOne(ctx, qname, qtype, res, 0)
		if err != nil {
			r.giveups.Add(1)
			if sp != nil {
				sp.SetAttr(trace.Str("error", err.Error()))
			}
			return res, err
		}
		res.RCode = resp.Flags.RCode
		res.Records = append(res.Records, resp.Answers...)
		// If the tail of the chain is a CNAME and we asked for something
		// else, restart at the target.
		next := chainTail(resp.Answers, qtype)
		if next == "" {
			if sp != nil {
				sp.SetAttr(trace.Str("rcode", res.RCode.String()),
					trace.Int("queries", int64(res.Queries)),
					trace.Int("records", int64(len(res.Records))))
			}
			return res, nil
		}
		qname = next
	}
	if sp != nil {
		sp.SetAttr(trace.Str("rcode", res.RCode.String()),
			trace.Int("queries", int64(res.Queries)))
	}
	return res, nil
}

// chainTail returns the target of the final CNAME if the response ended on
// one without answering qtype.
func chainTail(answers []dnswire.RR, qtype dnswire.Type) string {
	if qtype == dnswire.TypeCNAME || qtype == dnswire.TypeANY || len(answers) == 0 {
		return ""
	}
	last := answers[len(answers)-1]
	if c, ok := last.Data.(dnswire.CNAME); ok {
		return c.Target
	}
	return ""
}

// resolveOne walks referrals from the closest cached cut (or the roots)
// until it gets an authoritative answer for qname.
func (r *Resolver) resolveOne(ctx context.Context, qname string, qtype dnswire.Type, res *Result, glueDepth int) (*dnswire.Message, error) {
	servers, _ := r.bestServers(qname)
	for step := 0; step < r.MaxSteps; step++ {
		if len(servers) == 0 {
			return nil, ErrNoServers
		}
		resp, err := r.exchange(ctx, servers, qname, qtype, res)
		if err != nil {
			return nil, err
		}
		switch {
		case resp.Flags.RCode == dnswire.RCodeNXDomain,
			len(resp.Answers) > 0,
			resp.Flags.Authoritative:
			// Terminal: an answer or an authoritative negative.
			return resp, nil
		default:
			// Referral: learn the cut and descend.
			next, origin := r.referralServers(ctx, resp, res, glueDepth)
			if len(next) == 0 {
				return resp, nil // dead end; surface what we have
			}
			if origin != "" {
				r.cache[origin] = next
			}
			servers = next
		}
	}
	return nil, ErrTooManyRef
}

// bestServers returns the cached servers for the deepest known ancestor of
// qname, falling back to the roots.
func (r *Resolver) bestServers(qname string) ([]netip.AddrPort, string) {
	for cand := qname; ; cand = dnswire.Parent(cand) {
		if s, ok := r.cache[cand]; ok && len(s) > 0 {
			return s, cand
		}
		if cand == "." {
			return r.roots, "."
		}
	}
}

// referralServers extracts the delegation from a referral response,
// resolving glueless NS hosts if needed.
func (r *Resolver) referralServers(ctx context.Context, resp *dnswire.Message, res *Result, glueDepth int) ([]netip.AddrPort, string) {
	var out []netip.AddrPort
	origin := ""
	var glueless []string
	for _, rr := range resp.Authority {
		ns, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		origin = rr.Name
		// A referral carries a few records: scan the additional section
		// for this host's glue.
		before := len(out)
		for _, g := range resp.Extra {
			if g.Name != ns.Host {
				continue
			}
			switch d := g.Data.(type) {
			case dnswire.A:
				out = append(out, netip.AddrPortFrom(d.Addr, transport.DNSPort))
			case dnswire.AAAA:
				out = append(out, netip.AddrPortFrom(d.Addr, transport.DNSPort))
			}
		}
		if len(out) == before {
			glueless = append(glueless, ns.Host)
		}
	}
	// Resolve glueless NS hosts only if no glued server is available.
	if len(out) == 0 && glueDepth < maxGlueDepth {
		for _, host := range glueless {
			sub, err := r.resolveOne(ctx, host, dnswire.TypeA, res, glueDepth+1)
			if err != nil {
				continue
			}
			for _, rr := range sub.Answers {
				if a, ok := rr.Data.(dnswire.A); ok {
					out = append(out, netip.AddrPortFrom(a.Addr, transport.DNSPort))
				}
			}
		}
	}
	return out, origin
}

// exchange sends the query to the servers in order, retrying on timeout,
// and returns the first matching response whose rcode is NOERROR or
// NXDOMAIN. A server answering any other rcode (SERVFAIL, REFUSED, ...)
// is dropped from the set and the next one asked at once; when none is
// left the exchange fails with ErrRCode. Each attempt is traced as a
// `transport.send` span when the context carries a sampled span; the
// query-latency histogram records the trace ID of the slowest query per
// bucket as an exemplar. Cancelling the context aborts between attempts.
func (r *Resolver) exchange(ctx context.Context, servers []netip.AddrPort, qname string, qtype dnswire.Type, res *Result) (*dnswire.Message, error) {
	q := dnswire.NewQuery(uint16(r.rng.Uint32()), qname, qtype)
	// Advertise an EDNS0 payload size so TLD referrals with glue fit.
	size := r.UDPSize
	if size <= 0 || size > transport.MTU {
		size = transport.MTU
	}
	q.Extra = append(q.Extra, dnswire.RR{
		Name: ".", Type: dnswire.TypeOPT, Class: dnswire.Class(size), Data: dnswire.OPT{},
	})
	wire, err := q.AppendPack(r.wire[:0])
	if err != nil {
		return nil, err
	}
	r.wire = wire
	// Span attributes are built only under a sampled span.
	parent := trace.SpanFromContext(ctx)
	var traceID string
	if parent != nil {
		traceID = parent.TraceID().String()
	}
	// Advance the logical clock (breaker cooldowns are measured in
	// exchanges) and order the candidate servers healthy-first, rotated by
	// the per-resolution fairness counter.
	r.health.tick++
	order := r.health.order(servers, r.rot)
	// timedOut is set by a timed-out attempt: only a retransmission after
	// a timeout spends the retry budget and backs off, never the move to
	// the next server after a SERVFAIL.
	timedOut := false
next:
	for attempt := 0; attempt <= r.Retries; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		at := attempt % len(order)
		server := order[at]
		if timedOut {
			if !res.takeRetry() {
				return nil, fmt.Errorf("%w: %s %s", ErrBudget, qname, qtype)
			}
			if err := r.backoffSleep(ctx, attempt); err != nil {
				return nil, err
			}
			timedOut = false
		}
		var ssp *trace.Span
		if parent != nil {
			_, ssp = trace.StartSpan(ctx, "transport.send",
				trace.Str("server", server.String()), trace.Int("attempt", int64(attempt)),
				trace.Int("bytes", int64(len(wire))))
		}
		if err := r.conn.WriteTo(wire, server); err != nil {
			ssp.SetAttr(trace.Str("error", err.Error()))
			ssp.End()
			return nil, err
		}
		r.queries.Add(1)
		res.Queries++
		sent := time.Now()
		deadline := sent.Add(r.Timeout)
		for {
			remain := time.Until(deadline)
			if remain <= 0 {
				ssp.SetAttr(trace.Str("outcome", "timeout"))
				ssp.End()
				break // retry
			}
			n, from, err := r.conn.ReadFrom(r.buf, remain)
			if err == transport.ErrTimeout {
				ssp.SetAttr(trace.Str("outcome", "timeout"))
				ssp.End()
				break
			}
			if err != nil {
				ssp.SetAttr(trace.Str("error", err.Error()))
				ssp.End()
				return nil, err
			}
			if from != server {
				continue // stray datagram
			}
			resp, err := dnswire.Unpack(r.buf[:n])
			if err != nil || resp.ID != q.ID || !resp.Flags.Response {
				continue // malformed or mismatched: keep waiting
			}
			if len(resp.Questions) != 1 || !questionMatches(resp.Questions[0], qname, qtype) {
				continue
			}
			mQueryLatency.ObserveExemplar(time.Since(sent).Seconds(), traceID)
			r.health.ok(server)
			if resp.Flags.Truncated {
				// RFC 1035 §4.2.2: retry over TCP. Keep the truncated
				// response if the stream path is unavailable or fails.
				ssp.SetAttr(trace.Str("outcome", "truncated"))
				ssp.End()
				if full, err := r.exchangeTCP(ctx, server, wire, q.ID, qname, qtype); err == nil {
					resp = full
				}
			} else if ssp != nil {
				ssp.SetAttr(trace.Str("outcome", "response"), trace.Int("resp_bytes", int64(n)))
				ssp.End()
			}
			if rc := resp.Flags.RCode; rc == dnswire.RCodeNoError || rc == dnswire.RCodeNXDomain {
				return resp, nil
			}
			// The server cannot answer; the next one may. The order is
			// the health table's scratch, rebuilt by the next exchange.
			if order = slices.Delete(order, at, at+1); len(order) == 0 {
				return nil, fmt.Errorf("%w: %s %s: %s", ErrRCode, qname, qtype, resp.Flags.RCode)
			}
			continue next
		}
		// Only a timed-out attempt reaches here: every response path
		// returned or moved to the next server above. Account it and
		// mark the server against the circuit breaker before the next
		// attempt tries elsewhere.
		attempt++
		timedOut = true
		r.timeouts.Add(1)
		res.Timeouts++
		r.health.fail(server)
	}
	return nil, fmt.Errorf("%w: %s %s", ErrExhausted, qname, qtype)
}

// backoffSleep waits the exponential retransmission delay before attempt
// (1-based), with deterministic jitter in [d/2, d] drawn from the
// resolver's seeded PRNG. A zero Backoff disables the sleep. Cancelling
// the context aborts the wait.
func (r *Resolver) backoffSleep(ctx context.Context, attempt int) error {
	if r.Backoff <= 0 {
		return nil
	}
	d := r.Backoff << (attempt - 1)
	if r.MaxBackoff > 0 && d > r.MaxBackoff {
		d = r.MaxBackoff
	}
	d = d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// exchangeTCP repeats one query over a stream connection.
func (r *Resolver) exchangeTCP(ctx context.Context, server netip.AddrPort, wire []byte, id uint16, qname string, qtype dnswire.Type) (*dnswire.Message, error) {
	sn, ok := r.net.(transport.StreamNetwork)
	if !ok {
		return nil, fmt.Errorf("dnsclient: transport has no stream support")
	}
	_, ssp := trace.StartSpan(ctx, "transport.tcp",
		trace.Str("server", server.String()))
	defer ssp.End()
	conn, err := sn.DialStream(r.conn.LocalAddr().Addr(), server)
	if err != nil {
		ssp.SetAttr(trace.Str("error", err.Error()))
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(r.Timeout * 4)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = conn.SetDeadline(deadline)
	if err := dnswire.WriteFramed(conn, wire); err != nil {
		return nil, err
	}
	r.queries.Add(1)
	msg, err := dnswire.ReadFramed(conn)
	if err != nil {
		return nil, err
	}
	resp, err := dnswire.Unpack(msg)
	if err != nil {
		return nil, err
	}
	if resp.ID != id || !resp.Flags.Response || len(resp.Questions) != 1 || !questionMatches(resp.Questions[0], qname, qtype) {
		return nil, fmt.Errorf("dnsclient: TCP response mismatch")
	}
	return resp, nil
}

func questionMatches(q dnswire.Question, name string, t dnswire.Type) bool {
	c, err := dnswire.CanonicalName(q.Name)
	return err == nil && c == name && q.Type == t
}
