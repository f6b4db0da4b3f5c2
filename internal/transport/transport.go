// Package transport abstracts the datagram network between the measurement
// system's resolvers and the simulated Internet's authoritative name
// servers.
//
// Two implementations are provided: an in-memory switched network (Mem)
// for large-scale deterministic simulation, whose listeners may answer
// inline (HandlerNetwork), and an adapter over real UDP sockets (UDP) so
// the same server and resolver code can be exercised over the loopback
// interface. Loss and latency are injected by wrapping either one
// (internal/chaos).
package transport

import (
	"errors"
	"fmt"
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
	ErrNoHandler    = errors.New("transport: network cannot answer inline")
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

// Handler answers one datagram sent to a handler-bound address. It runs
// in the sender's goroutine, inside the sender's WriteTo, and must not
// retain p after it returns.
type Handler func(p []byte, from netip.AddrPort)

// HandlerNetwork is a Network whose listeners can answer inline: a query
// becomes a function call instead of a hand-off to a serving goroutine.
type HandlerNetwork interface {
	Network
	// ListenHandler binds addr like Listen, but every datagram sent to
	// addr is passed to the handler that bind returns instead of being
	// queued; ReadFrom on the returned Conn never yields a datagram.
	// bind receives that Conn, for the handler to reply through, and runs
	// before any datagram reaches the handler. Close waits for handler
	// calls in flight and refuses later ones, so a handler must not close
	// its own conn. Networks that cannot dispatch inline return
	// ErrNoHandler.
	ListenHandler(addr netip.AddrPort, bind func(Conn) Handler) (Conn, error)
}

// Mem is a deterministic in-memory datagram network: it loses nothing
// and delays nothing (wrap it with internal/chaos for that). Its
// listeners can answer inline (ListenHandler).
//
// The zero value is not usable; create one with NewMem.
type Mem struct {
	mu        sync.Mutex // guards conns and nextEphem
	conns     map[netip.AddrPort]*memConn
	nextEphem uint16
	// streamTab lazily holds the in-memory stream listeners (stream.go).
	streamTab *memStreams
}

// NewMem creates an in-memory network. Mem draws nothing at random; the
// argument is accepted, and ignored, for callers that pass a per-day seed.
func NewMem(int64) *Mem {
	return &Mem{
		conns:     make(map[netip.AddrPort]*memConn),
		nextEphem: 32768,
	}
}

// Listen implements Network.
func (n *Mem) Listen(addr netip.AddrPort) (Conn, error) {
	return n.register(newMemConn(n, addr))
}

// ListenHandler implements HandlerNetwork. The bound conn has no queue.
func (n *Mem) ListenHandler(addr netip.AddrPort, bind func(Conn) Handler) (Conn, error) {
	c := &memConn{net: n, addr: addr, done: make(chan struct{})}
	c.handler = bind(c)
	return n.register(c)
}

// register binds c at its fixed address.
func (n *Mem) register(c *memConn) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.conns[c.addr]; ok {
		return nil, fmt.Errorf("%w: %v", ErrAddrInUse, c.addr)
	}
	n.conns[c.addr] = c
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
	queue chan datagram // nil on a handler conn
	done  chan struct{}
	once  sync.Once
	// timer is the read-timeout timer, parked here stopped and drained
	// between ReadFrom calls; nil while a reader holds it.
	timer atomic.Pointer[time.Timer]
	// handler, when set, answers every datagram sent to the conn. Each
	// call holds hmu's read side; Close takes its write side, so it waits
	// for calls in flight, and sets closed, which refuses later ones.
	handler Handler
	hmu     sync.RWMutex
	closed  bool
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
	c.net.mu.Lock()
	dst := c.net.conns[to]
	c.net.mu.Unlock()
	switch {
	case dst == nil:
		// Mirror UDP: a datagram to nowhere vanishes silently; the
		// caller discovers it via timeout.
	case dst.handler != nil:
		dst.handle(p, c.addr)
	default:
		body := payloadPool.Get().(*payload)
		body.b = append(body.b[:0], p...)
		dst.deliver(datagram{from: c.addr, body: body})
	}
	return nil
}

// handle passes one datagram to the handler of c, unless c is closed.
func (c *memConn) handle(p []byte, from netip.AddrPort) {
	c.hmu.RLock()
	defer c.hmu.RUnlock()
	if c.closed {
		return
	}
	mPacketsSent.Inc()
	mBytesSent.Add(int64(len(p)))
	c.handler(p, from)
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
		c.hmu.Lock()
		c.closed = true
		c.hmu.Unlock()
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
