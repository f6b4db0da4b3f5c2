package chaos

import (
	"net/netip"
	"sync"
	"time"

	"dpsadopt/internal/dnsserver"
)

// serverBurst is the decision window for SERVFAIL injection: consecutive
// queries for the same name share one verdict, so failures arrive in
// bursts — the shape of a real authoritative incident — rather than as
// independent coin flips.
const serverBurst = 8

// ServerFaults is a deterministic dnsserver.FaultInjector: each query's
// fate is a hash of (seed, qname, sequence number), where the sequence
// counts the queries one client has sent for that qname. One client's
// queries arrive in its own deterministic order, so a run replays
// identically for a given seed however the queries of concurrent
// clients (wire-mode workers) interleave; a sequence shared by all
// clients would hand each one whatever position the race left it.
type ServerFaults struct {
	cfg  Config
	seed uint64

	mu   sync.Mutex
	seqs map[seqKey]uint64
}

// seqKey names one client's query stream for one name.
type seqKey struct {
	from  netip.AddrPort
	qname string
}

// NewServerFaults builds the scenario's server-side injector. Returns nil
// when the scenario has no server faults, so callers can install the
// result unconditionally.
func NewServerFaults(cfg Config, seed int64) *ServerFaults {
	if !cfg.ServerActive() {
		return nil
	}
	return &ServerFaults{cfg: cfg, seed: uint64(seed), seqs: make(map[seqKey]uint64)}
}

// Per-fault decision streams for server faults, disjoint from the
// network-side streams.
const (
	streamServfail = iota + 16
	streamSlow
	streamTruncate
	streamServerDrop
)

// QueryFault implements dnsserver.FaultInjector. A nil *ServerFaults is
// a valid no-op injector, matching NewServerFaults's nil return for
// fault-free scenarios.
func (f *ServerFaults) QueryFault(from netip.AddrPort, qname string) (dnsserver.Fault, time.Duration) {
	if f == nil {
		return dnsserver.FaultNone, 0
	}
	k := seqKey{from, qname}
	f.mu.Lock()
	seq := f.seqs[k]
	f.seqs[k] = seq + 1
	f.mu.Unlock()
	base := mix2(mix2(f.seed, hashString(qname)), seq)
	if f.cfg.ServerDrop > 0 && unit(mix2(base, streamServerDrop)) < f.cfg.ServerDrop {
		return dnsserver.FaultDrop, 0
	}
	// SERVFAIL decisions are shared across a burst window of queries.
	if f.cfg.Servfail > 0 {
		burst := mix2(mix2(f.seed, hashString(qname)), seq/serverBurst)
		if unit(mix2(burst, streamServfail)) < f.cfg.Servfail {
			return dnsserver.FaultServfail, 0
		}
	}
	if f.cfg.Truncate > 0 && unit(mix2(base, streamTruncate)) < f.cfg.Truncate {
		return dnsserver.FaultTruncate, 0
	}
	if f.cfg.Slow > 0 && unit(mix2(base, streamSlow)) < f.cfg.Slow {
		return dnsserver.FaultSlow, f.cfg.SlowDelay
	}
	return dnsserver.FaultNone, 0
}
