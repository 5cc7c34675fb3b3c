package transport_test

// Goroutine-leak regression for the TCP transport: the PR 2 rebuild gave
// every connection a context cancelled on Close so in-flight handlers
// cannot outlive the server, and the client's access engine promises its
// background drains always terminate. These tests close endpoints with
// work still in flight — including a register client with unfinished
// hedged reads — and require the goroutine count to return to baseline.

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/wire"
)

// waitForGoroutines polls until the goroutine count drops to at most want,
// failing the test otherwise. The poll tolerates runtime bookkeeping
// goroutines by allowing slack already folded into want.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutines did not drain: %d > %d\n%s", n, want, buf)
}

// TestTCPServerCloseWithInflightRequests closes a server while handlers are
// still running; Close must cancel them via the per-connection context and
// every server and client goroutine must exit.
func TestTCPServerCloseWithInflightRequests(t *testing.T) {
	baseline := runtime.NumGoroutine()

	started := make(chan struct{}, 64)
	h := transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
		started <- struct{}{}
		// Block until the server's Close cancels the per-connection context;
		// without that cancellation this handler (and Close itself) would
		// hang until the 10s fallback, failing the drain below.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return wire.PingReply{}, nil
		}
	})
	srv, err := transport.ListenTCPCodec("127.0.0.1:0", h, transport.CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	client := transport.NewTCPClientOpts(map[quorum.ServerID]string{1: srv.Addr()}, transport.TCPClientOptions{})

	const inflight = 8
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client.Call(context.Background(), 1, wire.PingRequest{}) //nolint:errcheck // failure expected at teardown
		}()
	}
	for i := 0; i < inflight; i++ {
		<-started
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	wg.Wait()
	client.Close()
	waitForGoroutines(t, baseline+2)
}

// TestHedgedReadsDrainOverTCP runs a register client with spares and a
// hedge timer against slow TCP replicas, closes everything with hedged
// reads unfinished, and requires the goroutine count to return to
// baseline: the access engine's background drains and the transport's
// connection goroutines must all terminate.
func TestHedgedReadsDrainOverTCP(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const n = 5
	sys, err := quorum.NewUniform(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make(map[quorum.ServerID]string, n)
	servers := make([]*transport.TCPServer, 0, n)
	for i := 0; i < n; i++ {
		r := replica.New(quorum.ServerID(i))
		// Slow replicas keep replies in flight when the reads return early.
		r.SetBehavior(replica.Delayed{Delay: 5 * time.Millisecond})
		srv, err := transport.ListenTCPCodec("127.0.0.1:0", r, transport.CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs[quorum.ServerID(i)] = srv.Addr()
	}
	tcpClient := transport.NewTCPClientOpts(addrs, transport.TCPClientOptions{})
	client, err := register.NewClient(register.Options{
		System:    sys,
		Mode:      register.Benign,
		Transport: tcpClient,
		Rand:      rand.New(rand.NewSource(1)),
		Clock:     ts.NewClock(1),
		Tuning: config.Tuning{
			Spares:     2,
			HedgeDelay: time.Millisecond,
			EagerRead:  true,
			W:          1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if _, err := client.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := client.Read(ctx, "k"); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	// Close the servers while hedged stragglers may still be in flight,
	// then wait out the client's drains: nothing may leak.
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			t.Fatalf("server close: %v", err)
		}
	}
	client.WaitDrained()
	tcpClient.Close()
	waitForGoroutines(t, baseline+2)
}

// stuckConn is a connection whose peer has stopped reading: Write blocks
// until the connection is closed, then fails.
type stuckConn struct {
	net.Conn
	entered chan struct{} // closed when the first Write has begun blocking
	closed  chan struct{}
	enter   sync.Once
	once    sync.Once
}

func (c *stuckConn) Write(p []byte) (int, error) {
	c.enter.Do(func() { close(c.entered) })
	<-c.closed
	return 0, net.ErrClosed
}

func (c *stuckConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestTCPClientCloseDuringBlockedFlush closes a client while one call is
// inside the frame writer's conn.Write — leading a flush against a peer that
// does not read — and the rest have appended their frames behind it. The
// writer has no goroutine of its own to stop, so Close must not wait on
// anything: every call fails promptly and transiently, and nothing is left
// running.
func TestTCPClientCloseDuringBlockedFlush(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv, err := transport.ListenTCPCodec("127.0.0.1:0", transport.HandlerFunc(func(context.Context, any) (any, error) {
		return wire.PingReply{}, nil
	}), transport.CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	stuck := &stuckConn{entered: make(chan struct{}), closed: make(chan struct{})}
	client := transport.NewTCPClientOpts(map[quorum.ServerID]string{1: srv.Addr()}, transport.TCPClientOptions{
		Dial: func(_ quorum.ServerID, addr string) (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			stuck.Conn = raw
			return stuck, nil
		},
	})

	const inflight = 8
	errs := make(chan error, inflight)
	call := func() {
		_, err := client.Call(context.Background(), 1, wire.PingRequest{})
		errs <- err
	}
	go call()
	<-stuck.entered // the leader is blocked in Write; the rest queue behind it
	for i := 1; i < inflight; i++ {
		go call()
	}
	closed := make(chan struct{})
	go func() {
		client.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("client.Close hung behind a blocked flush")
	}
	for i := 0; i < inflight; i++ {
		select {
		case err := <-errs:
			if err == nil || !transport.IsTransient(err) {
				t.Errorf("call resolved with %v, want a transient failure", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a call never returned after Close")
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	waitForGoroutines(t, baseline+2)
}
