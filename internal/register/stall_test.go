package register

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/wire"
)

// TestStalledPeerCannotStallAnOperation: one member of a hedged read's
// access set is a loopback peer that accepted the connection and never
// reads from it, and the client's send buffer toward it is already full.
// CallTimeout is 0, so only hedging can route around it. The read starts
// its call to that peer like any other, promotes a spare when the hedge
// delay passes and returns: the gather never waits in a Write. Close then
// returns, failing what the peer never answered. (A design in which the
// caller leads a blocking Write hangs in the first dispatch.)
func TestStalledPeerCannotStallAnOperation(t *testing.T) {
	const (
		n, q  = 6, 4
		hedge = 5 * time.Millisecond
		slack = time.Second
	)
	addrs := make(map[quorum.ServerID]string, n)
	for id := quorum.ServerID(1); id < n; id++ {
		srv, err := transport.ListenTCPCodec("127.0.0.1:0", replica.New(id), transport.CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[id] = srv.Addr()
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addrs[0] = l.Addr().String()
	// The peer reads the first bytes it is sent, so the client's first frame
	// is known to be out of its writer, and then never reads again.
	peer := make(chan net.Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			c.(*net.TCPConn).SetReadBuffer(4 << 10)
			c.Read(make([]byte, 1))
			peer <- c
		}
	}()
	raw := make(chan net.Conn, 1)
	client := transport.NewTCPClientOpts(addrs, transport.TCPClientOptions{
		Dial: func(to quorum.ServerID, addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err == nil && to == 0 {
				c.(*net.TCPConn).SetWriteBuffer(4 << 10)
				raw <- c
			}
			return c, err
		},
	})
	ctx := context.Background()
	for id := quorum.ServerID(1); id < n; id++ {
		if _, err := client.Call(ctx, id, wire.ReadRequest{Key: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	// Connect to the stalled peer with a call it will never answer; once its
	// frame is out, fill the stream to the brim behind it.
	unanswered := make(chan error, 1)
	go func() {
		_, err := client.Call(ctx, 0, wire.ReadRequest{Key: "k"})
		unanswered <- err
	}()
	conn := <-raw
	defer (<-peer).Close()
	fill := make([]byte, 64<<10)
	for {
		conn.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
		if _, err := conn.Write(fill); err != nil {
			break
		}
	}
	conn.SetWriteDeadline(time.Time{})

	cl, err := NewClient(Options{
		System: fixedSystem{SpareSampler: uniformSystem(t, n, q), members: []quorum.ServerID{0, 1, 2, 3}, spares: []quorum.ServerID{4, 5}},
		Mode:   Benign, Transport: client, Rand: rand.New(rand.NewSource(1)), Clock: ts.NewClock(1),
		Tuning: config.Tuning{Spares: 2, HedgeDelay: hedge, EagerRead: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rr   ReadResult
		err  error
		took time.Duration
	}
	read := make(chan result, 1)
	start := time.Now()
	go func() {
		rr, err := cl.Read(ctx, "k")
		read <- result{rr, err, time.Since(start)}
	}()
	select {
	case r := <-read:
		if r.err != nil || r.rr.Replies != q || r.rr.Promoted != 1 {
			t.Errorf("read returned %+v, %v; want %d replies with one spare promoted", r.rr, r.err, q)
		}
		if r.took > hedge+slack {
			t.Errorf("read took %v, want the hedge delay %v plus at most %v", r.took, hedge, slack)
		}
	case <-time.After(10 * time.Second):
		client.Close()
		t.Fatal("the read is stuck behind the stalled peer")
	}

	closed := make(chan struct{})
	go func() {
		client.Close()
		cl.WaitDrained()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if err := <-unanswered; !transport.IsTransient(err) {
		t.Errorf("the unanswered call ended with %v, want a transient failure", err)
	}
}
