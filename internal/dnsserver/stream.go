package dnsserver

import (
	"errors"
	"net"
	"time"

	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/transport"
)

// DNS over TCP (RFC 1035 §4.2.2): each message is preceded by a two-byte
// big-endian length. Clients fall back to TCP when a UDP response arrives
// truncated; over TCP the server never truncates.

// tcpIdleTimeout bounds how long a connection may sit between queries.
const tcpIdleTimeout = 5 * time.Second

// ServeStream accepts TCP connections and answers framed queries until
// the listener is closed. Each connection is handled in its own
// goroutine and can carry multiple queries.
func (s *Server) ServeStream(l transport.StreamListener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		_ = conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout))
		msg, err := dnswire.ReadFramed(conn)
		if err != nil {
			return
		}
		q, err := dnswire.Unpack(msg)
		if err != nil {
			return // garbage on a stream: drop the connection
		}
		resp := s.Handle(q)
		wire, err := resp.Pack()
		if err != nil {
			return
		}
		_ = conn.SetWriteDeadline(time.Now().Add(tcpIdleTimeout))
		if err := dnswire.WriteFramed(conn, wire); err != nil {
			return
		}
	}
}

// StartStream binds a TCP listener for srv at addr (when the network
// supports streams) and serves it in a goroutine. Returns nil, nil when
// the network has no stream support.
func StartStream(srv *Server, network transport.Network, addr string) (*RunningStream, error) {
	sn, ok := network.(transport.StreamNetwork)
	if !ok {
		return nil, nil
	}
	ap, err := parseListenAddr(addr)
	if err != nil {
		return nil, err
	}
	l, err := sn.ListenStream(ap)
	if err != nil {
		return nil, err
	}
	r := &RunningStream{listener: l, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.err = srv.ServeStream(l)
	}()
	return r, nil
}

// RunningStream wraps a serving TCP listener.
type RunningStream struct {
	listener transport.StreamListener
	done     chan struct{}
	err      error
}

// Stop closes the listener and waits briefly for the accept loop.
func (r *RunningStream) Stop() error {
	r.listener.Close()
	select {
	case <-r.done:
	case <-time.After(time.Second):
	}
	return r.err
}
