package chaos

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"dpsadopt/internal/transport"
)

// Network wraps a transport.Network and injects the configured datagram
// faults on every send. It composes with all three transports (Mem, UDP,
// MappedUDP) and passes stream (TCP) traffic through unmodified — TCP is
// reliable; only dialing a blackholed server fails.
//
// Fault decisions are deterministic: each datagram's fate is a hash of
// (seed, sender, destination, per-flow sequence number). Two runs with
// the same seed and the same per-flow send sequences inject exactly the
// same faults, independent of goroutine scheduling across flows.
type Network struct {
	inner transport.Network
	cfg   Config
	seed  uint64

	mu        sync.Mutex
	protected map[netip.Addr]bool
}

// Wrap layers the scenario's network faults over inner. The seed defines
// the run's fault pattern; the same (cfg, seed) always injects the same
// faults.
func Wrap(inner transport.Network, cfg Config, seed int64) *Network {
	return &Network{
		inner:     inner,
		cfg:       cfg,
		seed:      uint64(seed),
		protected: make(map[netip.Addr]bool),
	}
}

// Protect exempts addresses from DeadFraction blackholing — typically the
// root servers, so a dead-ns scenario degrades resolution instead of
// severing the namespace at its first hop.
func (n *Network) Protect(addrs ...netip.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range addrs {
		n.protected[a] = true
	}
}

// dead reports whether dst is blackholed. Only name-server addresses
// (port 53) die: responses to ephemeral client ports always route.
func (n *Network) dead(dst netip.AddrPort) bool {
	if n.cfg.DeadFraction <= 0 || dst.Port() != transport.DNSPort {
		return false
	}
	n.mu.Lock()
	prot := n.protected[dst.Addr()]
	n.mu.Unlock()
	if prot {
		return false
	}
	return unit(mix2(mix2(n.seed, 0xdeadd00d), hashString(dst.Addr().String()))) < n.cfg.DeadFraction
}

// Listen implements transport.Network.
func (n *Network) Listen(addr netip.AddrPort) (transport.Conn, error) {
	c, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return newFaultConn(n, c), nil
}

// ListenHandler implements transport.HandlerNetwork when the inner
// network does. The handler answers through a fault-wrapped conn, so its
// replies take the faults a Listen conn's writes would.
func (n *Network) ListenHandler(addr netip.AddrPort, bind func(transport.Conn) transport.Handler) (transport.Conn, error) {
	hn, ok := n.inner.(transport.HandlerNetwork)
	if !ok {
		return nil, transport.ErrNoHandler
	}
	var fc *faultConn
	if _, err := hn.ListenHandler(addr, func(c transport.Conn) transport.Handler {
		fc = newFaultConn(n, c)
		return bind(fc)
	}); err != nil {
		return nil, err
	}
	return fc, nil
}

// Dial implements transport.Network.
func (n *Network) Dial(local netip.Addr) (transport.Conn, error) {
	c, err := n.inner.Dial(local)
	if err != nil {
		return nil, err
	}
	return newFaultConn(n, c), nil
}

// ListenStream implements transport.StreamNetwork when the inner network
// does.
func (n *Network) ListenStream(addr netip.AddrPort) (transport.StreamListener, error) {
	sn, ok := n.inner.(transport.StreamNetwork)
	if !ok {
		return nil, fmt.Errorf("chaos: inner transport has no stream support")
	}
	return sn.ListenStream(addr)
}

// DialStream implements transport.StreamNetwork. Dialing a blackholed
// server fails — a dead host is dead on every protocol.
func (n *Network) DialStream(local netip.Addr, remote netip.AddrPort) (net.Conn, error) {
	sn, ok := n.inner.(transport.StreamNetwork)
	if !ok {
		return nil, fmt.Errorf("chaos: inner transport has no stream support")
	}
	if n.dead(remote) {
		return nil, fmt.Errorf("%w: %v (chaos: dead server)", transport.ErrNoRoute, remote)
	}
	return sn.DialStream(local, remote)
}

// faultConn applies the scenario to every outgoing datagram.
type faultConn struct {
	net   *Network
	inner transport.Conn
	local uint64 // hashed local address, fixed per conn

	mu   sync.Mutex
	seqs map[netip.AddrPort]uint64 // per-destination flow sequence
}

func newFaultConn(n *Network, inner transport.Conn) *faultConn {
	return &faultConn{
		net:   n,
		inner: inner,
		local: hashString(inner.LocalAddr().String()),
		seqs:  make(map[netip.AddrPort]uint64),
	}
}

func (c *faultConn) LocalAddr() netip.AddrPort { return c.inner.LocalAddr() }

func (c *faultConn) ReadFrom(buf []byte, timeout time.Duration) (int, netip.AddrPort, error) {
	return c.inner.ReadFrom(buf, timeout)
}

func (c *faultConn) Close() error { return c.inner.Close() }

// Per-fault decision streams, mixed into the flow hash so each fault
// draws independently.
const (
	streamLoss = iota + 1
	streamDup
	streamReorder
	streamJitter
	streamSpike
)

func (c *faultConn) WriteTo(p []byte, to netip.AddrPort) error {
	if !c.net.cfg.Active() {
		return c.inner.WriteTo(p, to)
	}
	if c.net.dead(to) {
		return nil // vanishes, like UDP to a dead host
	}
	c.mu.Lock()
	seq := c.seqs[to]
	c.seqs[to] = seq + 1
	c.mu.Unlock()
	drop, dup, delay := c.datagram(to, seq)
	if drop {
		return nil
	}
	send := func() error { return c.inner.WriteTo(p, to) }
	if delay > 0 {
		// Deliver later; the payload must outlive the caller's buffer.
		held := append([]byte(nil), p...)
		time.AfterFunc(delay, func() { _ = c.inner.WriteTo(held, to) })
		if dup {
			time.AfterFunc(delay, func() { _ = c.inner.WriteTo(held, to) })
		}
		return nil
	}
	if err := send(); err != nil {
		return err
	}
	if dup {
		return send()
	}
	return nil
}

// datagram decides the fate of the seq-th datagram of this conn's flow to
// to: whether it is lost, whether it is duplicated, and how long it is
// held before delivery. It is a pure function of the seed, the flow and
// seq.
func (c *faultConn) datagram(to netip.AddrPort, seq uint64) (drop, dup bool, delay time.Duration) {
	cfg := c.net.cfg
	base := mix2(mix2(c.net.seed, c.local), mix2(hashString(to.String()), seq))
	if cfg.Loss > 0 && unit(mix2(base, streamLoss)) < cfg.Loss {
		return true, false, 0
	}
	dup = cfg.Duplicate > 0 && unit(mix2(base, streamDup)) < cfg.Duplicate
	if cfg.SpikeProb > 0 && unit(mix2(base, streamSpike)) < cfg.SpikeProb {
		return false, dup, cfg.SpikeDelay
	}
	if cfg.Latency > 0 {
		delay = cfg.Latency
	}
	if cfg.Jitter > 0 {
		delay += time.Duration(unit(mix2(base, streamJitter)) * float64(cfg.Jitter))
	}
	if cfg.Reorder > 0 && unit(mix2(base, streamReorder)) < cfg.Reorder {
		delay += cfg.ReorderDelay
	}
	return false, dup, delay
}
