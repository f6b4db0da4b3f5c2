package dnsclient

import "net/netip"

// Per-server health tracking: the paper's crawl queried millions of
// nameservers of wildly varying quality, and a measurement day must not
// be stalled by the dead ones. Each resolver keeps a health score per
// server it has talked to — an EWMA of answer/timeout outcomes — plus a
// simple circuit breaker: a server that times out breakerTrip times in a
// row is "open" and deprioritized for breakerCooldown queries, after
// which one probe (half-open) decides whether it recovers.
//
// Like the rest of the Resolver, the table is single-goroutine: the
// pipeline creates one resolver per worker.

// Breaker and scoring tunables.
const (
	// breakerTrip consecutive timeouts open the circuit.
	breakerTrip = 3
	// breakerCooldown is how many subsequent exchanges the circuit stays
	// open before a half-open probe is allowed.
	breakerCooldown = 24
	// healthAlpha is the EWMA weight of the newest outcome.
	healthAlpha = 0.3
	// unhealthyScore is the EWMA level below which a server is
	// deprioritized even with the breaker closed.
	unhealthyScore = 0.5
)

// serverHealth is one nameserver's record.
type serverHealth struct {
	score       float64 // EWMA of outcomes: 1 = answered, 0 = timed out
	consecFails int
	openUntil   int64 // breaker open until this tick (0 = closed)
}

// healthTable tracks every server a resolver has exchanged with. The
// tick is a logical clock advanced once per exchange, so cooldowns are
// measured in query volume, not wall time — deterministic under test.
type healthTable struct {
	tick    int64
	servers map[netip.AddrPort]*serverHealth
	// ordered is the scratch order fills and returns.
	ordered []netip.AddrPort
}

func newHealthTable() *healthTable {
	return &healthTable{servers: make(map[netip.AddrPort]*serverHealth)}
}

func (h *healthTable) get(s netip.AddrPort) *serverHealth {
	sh := h.servers[s]
	if sh == nil {
		sh = &serverHealth{score: 1} // innocent until timed out
		h.servers[s] = sh
	}
	return sh
}

// ok records a successful exchange: the breaker closes, the score rises.
func (h *healthTable) ok(s netip.AddrPort) {
	sh := h.get(s)
	sh.score += healthAlpha * (1 - sh.score)
	sh.consecFails = 0
	sh.openUntil = 0
}

// fail records a timeout; enough consecutive ones trip the breaker.
func (h *healthTable) fail(s netip.AddrPort) {
	sh := h.get(s)
	sh.score -= healthAlpha * sh.score
	sh.consecFails++
	if sh.consecFails >= breakerTrip && sh.openUntil <= h.tick {
		sh.openUntil = h.tick + breakerCooldown
	}
}

// penalty ranks a server for ordering: 0 = healthy, 1 = low score,
// 2 = breaker open. Unknown servers are healthy.
func (h *healthTable) penalty(s netip.AddrPort) int {
	sh := h.servers[s]
	switch {
	case sh == nil:
		return 0
	case sh.openUntil > h.tick:
		return 2
	case sh.score < unhealthyScore:
		return 1
	default:
		return 0
	}
}

// order returns servers rotated by rot and stably sorted healthy-first:
// the rotation spreads first-query load across the NS set (a slow
// servers[0] must not eat every resolution's timeout budget), and the
// partition pushes breaker-open servers to the back, where they are
// still reachable as a last resort — an all-open set degrades to plain
// rotation rather than failing outright. The result is a table-owned
// scratch, valid until the next call.
func (h *healthTable) order(servers []netip.AddrPort, rot uint64) []netip.AddrPort {
	n := len(servers)
	start := int(rot % uint64(n))
	out := h.ordered[:0]
	// One pass per penalty level over the rotated list is a stable sort
	// by penalty; a healthy set is done after the first.
	for pen := 0; pen <= 2 && len(out) < n; pen++ {
		for i := 0; i < n; i++ {
			if s := servers[(start+i)%n]; h.penalty(s) == pen {
				out = append(out, s)
			}
		}
	}
	h.ordered = out
	return out
}
