// Package transport abstracts the datagram network between the measurement
// system's resolvers and the simulated Internet's authoritative name
// servers.
//
// Two implementations are provided: an in-memory switched network (Mem)
// with optional loss and latency for large-scale deterministic simulation,
// and an adapter over real UDP sockets (UDP) so the same server and
// resolver code can be exercised over the loopback interface.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// DNSPort is the well-known DNS port used by simulated servers.
const DNSPort = 53

// Errors returned by transport operations.
var (
	ErrClosed       = errors.New("transport: connection closed")
	ErrTimeout      = errors.New("transport: read timeout")
	ErrAddrInUse    = errors.New("transport: address in use")
	ErrNoRoute      = errors.New("transport: no listener at destination")
	ErrPayloadSize  = errors.New("transport: payload exceeds MTU")
	ErrNoEphemerals = errors.New("transport: ephemeral ports exhausted")
)

// MTU is the largest datagram the in-memory network will carry; it mirrors
// a jumbo EDNS0 payload so measurement responses are never fragmented.
const MTU = 4096

// Conn is a minimal datagram endpoint.
type Conn interface {
	// WriteTo sends one datagram to the given address. It does not retain
	// p after it returns, so the caller may reuse the buffer at once.
	WriteTo(p []byte, to netip.AddrPort) error
	// ReadFrom blocks until a datagram arrives or the timeout elapses,
	// copying it into buf. A zero timeout blocks indefinitely.
	ReadFrom(buf []byte, timeout time.Duration) (int, netip.AddrPort, error)
	// LocalAddr returns the bound address.
	LocalAddr() netip.AddrPort
	// Close releases the endpoint. Blocked readers return ErrClosed.
	Close() error
}

// Network creates endpoints.
type Network interface {
	// Listen binds a Conn at a fixed address (e.g. a name server at
	// ip:53).
	Listen(addr netip.AddrPort) (Conn, error)
	// Dial binds a Conn at an ephemeral port on the given local IP, for
	// client use.
	Dial(local netip.Addr) (Conn, error)
}

// Mem is a deterministic in-memory datagram network.
//
// The zero value is not usable; create one with NewMem. Loss and latency
// are applied per datagram using the network's seeded PRNG, so a run is
// reproducible for a given seed.
type Mem struct {
	mu        sync.Mutex
	conns     map[netip.AddrPort]*memConn
	rng       *rand.Rand
	loss      float64
	delay     time.Duration
	nextEphem uint16
	// Stats counts datagrams carried and dropped, for the ablation bench.
	sent    int64
	dropped int64
	// streamTab lazily holds the in-memory stream listeners (stream.go).
	streamTab *memStreams
}

// NewMem creates an in-memory network. seed makes loss decisions
// reproducible.
func NewMem(seed int64) *Mem {
	return &Mem{
		conns:     make(map[netip.AddrPort]*memConn),
		rng:       rand.New(rand.NewSource(seed)),
		nextEphem: 32768,
	}
}

// SetLoss sets the independent per-datagram drop probability in [0,1).
func (n *Mem) SetLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.loss = p
}

// SetDelay sets a fixed one-way delivery delay.
func (n *Mem) SetDelay(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delay = d
}

// Stats returns the number of datagrams delivered and dropped so far.
func (n *Mem) Stats() (sent, dropped int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.dropped
}

// Listen implements Network.
func (n *Mem) Listen(addr netip.AddrPort) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.conns[addr]; ok {
		return nil, fmt.Errorf("%w: %v", ErrAddrInUse, addr)
	}
	c := newMemConn(n, addr)
	n.conns[addr] = c
	return c, nil
}

// Dial implements Network.
func (n *Mem) Dial(local netip.Addr) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for tries := 0; tries < 65536; tries++ {
		port := n.nextEphem
		n.nextEphem++
		if n.nextEphem == 0 {
			n.nextEphem = 32768
		}
		addr := netip.AddrPortFrom(local, port)
		if _, ok := n.conns[addr]; ok {
			continue
		}
		c := newMemConn(n, addr)
		n.conns[addr] = c
		return c, nil
	}
	return nil, ErrNoEphemerals
}

// payload is a pooled datagram body: WriteTo copies into one, ReadFrom
// hands it back after copying out, so no reader ever sees a buffer that a
// later datagram reuses.
type payload struct{ b []byte }

var payloadPool = sync.Pool{New: func() any { return new(payload) }}

type datagram struct {
	from netip.AddrPort
	body *payload
}

type memConn struct {
	net   *Mem
	addr  netip.AddrPort
	queue chan datagram
	done  chan struct{}
	once  sync.Once
	// timer is the read-timeout timer, parked here stopped and drained
	// between ReadFrom calls; nil while a reader holds it.
	timer atomic.Pointer[time.Timer]
}

func newMemConn(n *Mem, addr netip.AddrPort) *memConn {
	return &memConn{
		net:  n,
		addr: addr,
		// 1024 datagrams stand in for a kernel socket buffer; deliver
		// drops on overflow.
		queue: make(chan datagram, 1024),
		done:  make(chan struct{}),
	}
}

func (c *memConn) LocalAddr() netip.AddrPort { return c.addr }

func (c *memConn) WriteTo(p []byte, to netip.AddrPort) error {
	if len(p) > MTU {
		return ErrPayloadSize
	}
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	n := c.net
	n.mu.Lock()
	dst, ok := n.conns[to]
	drop := ok && n.loss > 0 && n.rng.Float64() < n.loss
	delay := n.delay
	if drop {
		n.dropped++
	} else if ok {
		n.sent++
	}
	n.mu.Unlock()
	if !ok || drop {
		// Mirror UDP: a datagram to nowhere (or lost) vanishes silently;
		// the caller discovers it via timeout. Return nil.
		return nil
	}
	body := payloadPool.Get().(*payload)
	body.b = append(body.b[:0], p...)
	d := datagram{from: c.addr, body: body}
	if delay > 0 {
		time.AfterFunc(delay, func() { dst.deliver(d) })
	} else {
		dst.deliver(d)
	}
	return nil
}

// deliver queues d on the receiving conn c, or drops it if c is closed or
// its queue is full.
func (c *memConn) deliver(d datagram) {
	size := int64(len(d.body.b)) // once queued, the body belongs to the reader
	select {
	case c.queue <- d:
		mPacketsSent.Inc()
		mBytesSent.Add(size)
		return
	case <-c.done:
	default:
		// Queue overflow: drop, like a kernel socket buffer.
		n := c.net
		n.mu.Lock()
		n.dropped++
		n.sent--
		n.mu.Unlock()
	}
	payloadPool.Put(d.body)
}

func (c *memConn) ReadFrom(buf []byte, timeout time.Duration) (int, netip.AddrPort, error) {
	// A datagram already queued, or a closed conn, needs no timer.
	select {
	case d := <-c.queue:
		return receive(buf, d)
	case <-c.done:
		return 0, netip.AddrPort{}, ErrClosed
	default:
	}
	var timer *time.Timer
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		if timer = c.timer.Swap(nil); timer != nil {
			timer.Reset(timeout)
		} else {
			timer = time.NewTimer(timeout) // first read, or another reader holds it
		}
		timeoutCh = timer.C
	}
	var d datagram
	var err error
	select {
	case d = <-c.queue:
	case <-c.done:
		err = ErrClosed
	case <-timeoutCh:
		err = ErrTimeout
	}
	if timer != nil {
		// go.mod predates Go 1.23, so an expired timer's channel holds
		// its tick until received: drain it, unless the select just did,
		// or the next Reset would time out at once.
		if !timer.Stop() && err != ErrTimeout {
			<-timer.C
		}
		c.timer.Store(timer)
	}
	if err != nil {
		return 0, netip.AddrPort{}, err
	}
	return receive(buf, d)
}

// receive copies d into buf and recycles its body.
func receive(buf []byte, d datagram) (int, netip.AddrPort, error) {
	n := copy(buf, d.body.b)
	payloadPool.Put(d.body)
	return n, d.from, nil
}

func (c *memConn) Close() error {
	c.once.Do(func() {
		close(c.done)
		c.net.mu.Lock()
		delete(c.net.conns, c.addr)
		c.net.mu.Unlock()
	})
	return nil
}

// UDP is a Network backed by real UDP sockets; addresses are used as-is, so
// tests and demos bind to 127.0.0.0/8.
type UDP struct{}

// Listen implements Network.
func (UDP) Listen(addr netip.AddrPort) (Conn, error) {
	uc, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(addr))
	if err != nil {
		return nil, err
	}
	return &udpConn{c: uc}, nil
}

// Dial implements Network.
func (UDP) Dial(local netip.Addr) (Conn, error) {
	uc, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.AddrPortFrom(local, 0)))
	if err != nil {
		return nil, err
	}
	return &udpConn{c: uc}, nil
}

type udpConn struct {
	c *net.UDPConn
}

func (u *udpConn) LocalAddr() netip.AddrPort {
	return u.c.LocalAddr().(*net.UDPAddr).AddrPort()
}

func (u *udpConn) WriteTo(p []byte, to netip.AddrPort) error {
	_, err := u.c.WriteToUDPAddrPort(p, to)
	if err != nil {
		return err
	}
	mPacketsSent.Inc()
	mBytesSent.Add(int64(len(p)))
	return nil
}

func (u *udpConn) ReadFrom(buf []byte, timeout time.Duration) (int, netip.AddrPort, error) {
	if timeout > 0 {
		if err := u.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, netip.AddrPort{}, err
		}
	} else {
		if err := u.c.SetReadDeadline(time.Time{}); err != nil {
			return 0, netip.AddrPort{}, err
		}
	}
	n, ap, err := u.c.ReadFromUDPAddrPort(buf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return 0, netip.AddrPort{}, ErrTimeout
		}
		if errors.Is(err, net.ErrClosed) {
			return 0, netip.AddrPort{}, ErrClosed
		}
		return 0, netip.AddrPort{}, err
	}
	return n, ap, nil
}

func (u *udpConn) Close() error { return u.c.Close() }
