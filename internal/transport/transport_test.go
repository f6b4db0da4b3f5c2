package transport

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"
)

func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

func TestMemRoundTrip(t *testing.T) {
	n := NewMem(1)
	packets := mPacketsSent.Value()
	srv, err := n.Listen(ap("10.0.0.1:53"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := n.Dial(netip.MustParseAddr("10.9.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.WriteTo([]byte("ping"), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	nr, from, err := srv.ReadFrom(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nr]) != "ping" || from != cli.LocalAddr() {
		t.Errorf("got %q from %v", buf[:nr], from)
	}
	if err := srv.WriteTo([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	nr, from, err = cli.ReadFrom(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nr]) != "pong" || from != srv.LocalAddr() {
		t.Errorf("got %q from %v", buf[:nr], from)
	}
	if got := mPacketsSent.Value() - packets; got != 2 {
		t.Errorf("%d datagrams delivered, want 2", got)
	}
}

func TestMemTimeout(t *testing.T) {
	n := NewMem(1)
	c, err := n.Dial(netip.MustParseAddr("10.9.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, _, err = c.ReadFrom(make([]byte, 16), 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("returned before timeout")
	}
}

func TestMemWriteToNowhere(t *testing.T) {
	n := NewMem(1)
	c, _ := n.Dial(netip.MustParseAddr("10.9.0.1"))
	defer c.Close()
	if err := c.WriteTo([]byte("x"), ap("10.0.0.99:53")); err != nil {
		t.Errorf("write to absent listener should vanish silently, got %v", err)
	}
}

func TestMemAddrInUse(t *testing.T) {
	n := NewMem(1)
	a := ap("10.0.0.1:53")
	c1, err := n.Listen(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen(a); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("second listen err = %v", err)
	}
	c1.Close()
	c2, err := n.Listen(a)
	if err != nil {
		t.Errorf("listen after close: %v", err)
	}
	c2.Close()
}

func TestMemCloseUnblocksReader(t *testing.T) {
	n := NewMem(1)
	c, _ := n.Dial(netip.MustParseAddr("10.9.0.1"))
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.ReadFrom(make([]byte, 16), 0)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("reader not unblocked by Close")
	}
}

func TestMemMTU(t *testing.T) {
	n := NewMem(1)
	cli, _ := n.Dial(netip.MustParseAddr("10.9.0.1"))
	defer cli.Close()
	if err := cli.WriteTo(make([]byte, MTU+1), ap("10.0.0.1:53")); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("oversize write err = %v", err)
	}
}

func TestMemEphemeralPortsUnique(t *testing.T) {
	n := NewMem(1)
	local := netip.MustParseAddr("10.9.0.1")
	seen := make(map[netip.AddrPort]bool)
	for i := 0; i < 100; i++ {
		c, err := n.Dial(local)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if seen[c.LocalAddr()] {
			t.Fatalf("duplicate ephemeral %v", c.LocalAddr())
		}
		seen[c.LocalAddr()] = true
	}
}

func TestMemConcurrent(t *testing.T) {
	n := NewMem(1)
	srv, _ := n.Listen(ap("10.0.0.1:53"))
	defer srv.Close()
	// Echo server.
	go func() {
		buf := make([]byte, 64)
		for {
			nr, from, err := srv.ReadFrom(buf, 0)
			if err != nil {
				return
			}
			_ = srv.WriteTo(buf[:nr], from)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := n.Dial(netip.MustParseAddr("10.9.0.2"))
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			buf := make([]byte, 64)
			for j := 0; j < 50; j++ {
				msg := []byte{byte(i), byte(j)}
				if err := cli.WriteTo(msg, srv.LocalAddr()); err != nil {
					t.Error(err)
					return
				}
				nr, _, err := cli.ReadFrom(buf, time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				if nr != 2 || buf[0] != byte(i) || buf[1] != byte(j) {
					t.Errorf("echo mismatch: %v", buf[:nr])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestUDPRoundTrip(t *testing.T) {
	var n UDP
	srv, err := n.Listen(ap("127.0.0.1:0"))
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	defer srv.Close()
	cli, err := n.Listen(ap("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.WriteTo([]byte("ping"), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	nr, from, err := srv.ReadFrom(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nr]) != "ping" {
		t.Errorf("got %q", buf[:nr])
	}
	if err := srv.WriteTo([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	if nr, _, err = cli.ReadFrom(buf, time.Second); err != nil || string(buf[:nr]) != "pong" {
		t.Errorf("reply: %q, %v", buf[:nr], err)
	}
}

func TestUDPTimeout(t *testing.T) {
	var n UDP
	cli, err := n.Listen(ap("127.0.0.1:0"))
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	defer cli.Close()
	if _, _, err := cli.ReadFrom(make([]byte, 16), 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
}

func TestMappedUDPRoundTrip(t *testing.T) {
	m := NewMappedUDP()
	simAddr := ap("10.0.0.1:53")
	srv, err := m.Listen(simAddr)
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	defer srv.Close()
	if srv.LocalAddr() != simAddr {
		t.Errorf("LocalAddr = %v", srv.LocalAddr())
	}
	cli, err := m.Dial(netip.MustParseAddr("10.9.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.WriteTo([]byte("ping"), simAddr); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, from, err := srv.ReadFrom(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "ping" {
		t.Errorf("payload = %q", buf[:n])
	}
	if from != cli.LocalAddr() {
		t.Errorf("translated source = %v, want %v", from, cli.LocalAddr())
	}
	if err := srv.WriteTo([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	if n, from, err = cli.ReadFrom(buf, time.Second); err != nil || string(buf[:n]) != "pong" || from != simAddr {
		t.Errorf("reply = %q from %v, %v", buf[:n], from, err)
	}
}

func TestMappedUDPToNowhere(t *testing.T) {
	m := NewMappedUDP()
	cli, err := m.Dial(netip.MustParseAddr("10.9.0.1"))
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	defer cli.Close()
	if err := cli.WriteTo([]byte("x"), ap("10.0.0.250:53")); err != nil {
		t.Errorf("unmapped destination should drop silently: %v", err)
	}
	if _, _, err := cli.ReadFrom(make([]byte, 8), 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v", err)
	}
}

func TestMappedUDPReleaseOnClose(t *testing.T) {
	m := NewMappedUDP()
	simAddr := ap("10.0.0.2:53")
	c1, err := m.Listen(simAddr)
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	if _, err := m.Listen(simAddr); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("duplicate listen err = %v", err)
	}
	c1.Close()
	c2, err := m.Listen(simAddr)
	if err != nil {
		t.Errorf("listen after close: %v", err)
	} else {
		c2.Close()
	}
}

// memPair is a listener and a dialled client on a fresh Mem.
func memPair(t *testing.T) (srv, cli Conn) {
	t.Helper()
	n := NewMem(1)
	srv, err := n.Listen(ap("10.0.0.1:53"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err = n.Dial(netip.MustParseAddr("10.9.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// Payload buffers are pooled: what a reader copied out must not change when
// the buffer carries a later datagram, and the sender may scribble over its
// own buffer as soon as WriteTo returns.
func TestMemReaderBufferNeverAliased(t *testing.T) {
	srv, cli := memPair(t)
	out := []byte("datagram A")
	if err := cli.WriteTo(out, srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	copy(out, "XXXXXXXXXX")
	first := make([]byte, 64)
	na, _, err := srv.ReadFrom(first, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(first[:na]) != "datagram A" {
		t.Fatalf("first read = %q, want the bytes as sent", first[:na])
	}
	if err := cli.WriteTo([]byte("datagram B, longer"), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if string(first[:na]) != "datagram A" {
		t.Errorf("first read changed to %q after a second datagram was sent", first[:na])
	}
	second := make([]byte, 64)
	nb, _, err := srv.ReadFrom(second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(second[:nb]) != "datagram B, longer" || string(first[:na]) != "datagram A" {
		t.Errorf("reads = %q then %q", first[:na], second[:nb])
	}
}

// The read timer is parked on the conn between calls. After it fired, the
// next read must wait its full timeout again (a stale tick left in the
// channel would end it at once), and a datagram sent later still arrives.
func TestMemTimeoutRepeatsThenReceives(t *testing.T) {
	srv, cli := memPair(t)
	buf := make([]byte, 16)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, _, err := srv.ReadFrom(buf, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("read %d: err = %v, want timeout", i, err)
		}
		if time.Since(start) < 15*time.Millisecond {
			t.Fatalf("read %d returned before its timeout", i)
		}
	}
	// A read that a datagram ends while its timer is armed parks a timer
	// that never fired; let that timer's original deadline pass, then
	// check the next read is not cut short by it.
	time.AfterFunc(5*time.Millisecond, func() { _ = cli.WriteTo([]byte("late"), srv.LocalAddr()) })
	n, _, err := srv.ReadFrom(buf, 30*time.Millisecond)
	if err != nil || string(buf[:n]) != "late" {
		t.Fatalf("read after timeouts = %q, %v", buf[:n], err)
	}
	time.Sleep(40 * time.Millisecond)
	start := time.Now()
	if _, _, err := srv.ReadFrom(buf, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("read after a parked, unfired timer returned before its timeout")
	}
}

// Two readers on one conn: one holds the parked timer, the other falls
// back to its own. Every datagram is read exactly once and both readers
// end on a timeout. Meaningful under -race.
func TestMemConcurrentReaders(t *testing.T) {
	srv, cli := memPair(t)
	const total = 400
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[string]int{}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 16)
			for {
				n, _, err := srv.ReadFrom(buf, 100*time.Millisecond)
				if err != nil {
					if !errors.Is(err, ErrTimeout) {
						t.Errorf("reader: %v", err)
					}
					return
				}
				mu.Lock()
				seen[string(buf[:n])]++
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < total; i++ {
		if err := cli.WriteTo([]byte{byte(i >> 8), byte(i)}, srv.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			time.Sleep(time.Millisecond) // let the readers block with armed timers
		}
	}
	wg.Wait()
	if len(seen) != total {
		t.Errorf("read %d distinct datagrams, want %d", len(seen), total)
	}
	for k, c := range seen {
		if c != 1 {
			t.Errorf("datagram %x read %d times", k, c)
		}
	}
}

// echoHandler binds an echo server at 10.0.0.1:53 that answers inline.
func echoHandler(t *testing.T, n *Mem) Conn {
	t.Helper()
	srv, err := n.ListenHandler(ap("10.0.0.1:53"), func(c Conn) Handler {
		return func(p []byte, from netip.AddrPort) { _ = c.WriteTo(p, from) }
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// A handler answers in the sender's goroutine: the reply is queued before
// WriteTo returns, so the client's read finds it without waiting.
func TestMemHandlerAnswersInline(t *testing.T) {
	n := NewMem(1)
	srv := echoHandler(t, n)
	if _, err := n.Listen(srv.LocalAddr()); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("Listen on a handler address: err = %v", err)
	}
	cli, _ := n.Dial(netip.MustParseAddr("10.9.0.1"))
	defer cli.Close()
	if err := cli.WriteTo([]byte("ping"), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	nr, from, err := cli.ReadFrom(buf, time.Nanosecond)
	if err != nil || string(buf[:nr]) != "ping" || from != srv.LocalAddr() {
		t.Fatalf("reply = %q from %v, %v", buf[:nr], from, err)
	}
}

// Close waits for handler calls in flight, and a datagram sent after Close
// reaches no handler.
func TestMemHandlerCloseWaitsForCalls(t *testing.T) {
	n := NewMem(1)
	entered, release := make(chan struct{}), make(chan struct{})
	var calls, finished int
	srv, err := n.ListenHandler(ap("10.0.0.1:53"), func(Conn) Handler {
		return func([]byte, netip.AddrPort) {
			calls++
			if calls == 1 {
				close(entered)
				<-release
			}
			finished++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := n.Dial(netip.MustParseAddr("10.9.0.1"))
	defer cli.Close()
	go func() { _ = cli.WriteTo([]byte("x"), srv.LocalAddr()) }()
	<-entered
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler call was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if finished != 1 {
		t.Fatalf("finished = %d after Close, want 1", finished)
	}
	if err := cli.WriteTo([]byte("y"), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("handler called %d times, want 1: a datagram after Close reached it", calls)
	}
}
