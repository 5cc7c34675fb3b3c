package transport

// The server's dispatch rule: a request whose handler says it cannot park
// is answered on the connection's read loop, in arrival order; anything
// else gets a goroutine of its own, so it never delays a request that
// arrived after it. And the client-side bug the read-loop work uncovered: a
// send that fails after the connection's read loop has already failed the
// call must consume the wake that failure left behind.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// bothSides echoes its request and counts which side answered.
type bothSides struct{ tried, handled atomic.Int64 }

func (h *bothSides) Handle(_ context.Context, req any) (any, error) {
	h.handled.Add(1)
	return req, nil
}

func (h *bothSides) TryHandle(_ context.Context, req any) (any, bool, error) {
	h.tried.Add(1)
	return req, true, nil
}

// TestServerAnswersOnTheReadLoop pipelines n requests down one raw
// connection before it reads a reply. A handler that accepts TryHandle
// answers every one of them there — Handle is never called — and the replies
// come back in request order, which two goroutines racing for the frame
// writer could not promise.
func TestServerAnswersOnTheReadLoop(t *testing.T) {
	const n = 200
	h := new(bothSides)
	srv, err := ListenTCPCodec("127.0.0.1:0", h, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var stats tcpCounters
	w := newFrameWriter(conn, &stats)
	for id := uint64(1); id <= n; id++ {
		body, err := wire.AppendEnvelope(nil, wire.Envelope{ID: id, Payload: wire.ReadRequest{Key: fmt.Sprint(id)}})
		if err == nil {
			err = w.writeFrame(body)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(conn)
	for want := uint64(1); want <= n; want++ {
		body, release, err := readFrame(br, &stats)
		if err != nil {
			t.Fatalf("reply %d: %v", want, err)
		}
		reply, err := wire.DecodeReplyEnvelope(body)
		release()
		if err != nil {
			t.Fatalf("reply %d: %v", want, err)
		}
		if reply.ID != want {
			t.Fatalf("reply %d carries id %d: replies left the connection out of request order", want, reply.ID)
		}
		if got := reply.Payload.(wire.ReadRequest).Key; got != fmt.Sprint(want) {
			t.Fatalf("reply %d echoes key %q", want, got)
		}
	}
	if tried, handled := h.tried.Load(), h.handled.Load(); tried != n || handled != 0 {
		t.Errorf("%d requests: %d TryHandle and %d Handle calls, want %d and 0", n, tried, handled, n)
	}
}

// TestParkingRequestDoesNotHoldUpTheConnection: a Delayed replica declines
// TryHandle, so its requests each get a goroutine. On ONE connection, a ping
// sent after a read is answered at once while the read sleeps out its
// delay, in exact virtual time.
func TestParkingRequestDoesNotHoldUpTheConnection(t *testing.T) {
	const delay = 300 * time.Millisecond
	sc := vtime.NewSimClock()
	sc.Run(func() {
		vn := NewVirtualNet(sc, 1)
		l, err := vn.Listen(0)
		if err != nil {
			t.Error(err)
			return
		}
		rep := replica.New(0)
		rep.SetBehavior(replica.Delayed{Delay: delay, Clock: sc})
		srv := ServeListener(l, rep, TCPOptions{Clock: sc})
		client := NewTCPClientOpts(map[quorum.ServerID]string{0: l.Addr().String()},
			TCPClientOptions{Clock: sc, Dial: vn.Dialer(ClientSource)})

		var readAt, pingAt time.Duration
		wg := vtime.NewWaitGroup(sc)
		wg.Add(1)
		sc.Go(func() {
			defer wg.Done()
			if _, err := client.Call(context.Background(), 0, wire.ReadRequest{Key: "k"}); err != nil {
				t.Errorf("read: %v", err)
			}
			readAt = sc.Elapsed()
		})
		sc.Sleep(time.Millisecond) // the read is on the wire, its handler asleep
		if _, err := client.Call(context.Background(), 0, wire.PingRequest{}); err != nil {
			t.Errorf("ping: %v", err)
		}
		pingAt = sc.Elapsed()
		wg.Wait()
		if pingAt != time.Millisecond {
			t.Errorf("ping sent at 1ms behind a sleeping read was answered at %v", pingAt)
		}
		if readAt != delay {
			t.Errorf("read answered at %v, want %v", readAt, delay)
		}
		if got := vn.Stats().Dials; got != 1 {
			t.Errorf("%d connections dialed; both calls must share one", got)
		}
		client.Close()
		srv.Close()
	})
}

// TestIdleConnectionCostsOneGoroutine: an accepted connection nothing is in
// flight on holds its read loop and nothing else.
func TestIdleConnectionCostsOneGoroutine(t *testing.T) {
	const conns = 20
	srv, err := ListenTCPCodec("127.0.0.1:0", new(bothSides), CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := runtime.NumGoroutine()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Conns < conns {
		if time.Now().After(deadline) {
			t.Fatalf("server accepted %d of %d connections", srv.Stats().Conns, conns)
		}
		time.Sleep(time.Millisecond)
	}
	// One goroutine a connection, with slack for the runtime's own. (The
	// last read loop may not have started yet; that can only lower the
	// count.)
	if got := runtime.NumGoroutine() - before; got > conns+2 {
		t.Errorf("%d idle connections hold %d goroutines, want one each", conns, got)
	}
}

// resetOnWrite is a client-side stream whose Write finds the stream reset
// under it, and does not return before the connection's read loop — woken
// by that same reset — has failed every pending call (and so evicted the
// connection). That is the order a drop verdict inside vconn.Write produces
// when the Go scheduler runs the read loop first.
type resetOnWrite struct {
	net.Conn
	failed func() bool // has the tcpConn above failed its calls?
}

func (c *resetOnWrite) Write([]byte) (int, error) {
	c.Conn.(*vconn).reset(errVConnReset)
	for !c.failed() {
		runtime.Gosched()
	}
	return 0, errVConnReset
}

// TestFailedSendConsumesTheReadLoopsWake: send registers its call before it
// writes, so when the write fails on a reset the read loop may already have
// claimed the call in failAll. The call must then be completed once, by
// failAll: a failed send that completed it again, or a completion that left
// its tracked wake-up unconsumed, freezes virtual time for good — Run never
// returns, which is how this test fails. The next call must find the dead
// connection gone and succeed on a fresh one.
func TestFailedSendConsumesTheReadLoopsWake(t *testing.T) {
	sc := vtime.NewSimClock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc.Run(func() {
			vn := NewVirtualNet(sc, 1)
			l, err := vn.Listen(0)
			if err != nil {
				t.Error(err)
				return
			}
			srv := ServeListener(l, upperHandler{}, TCPOptions{Clock: sc})
			var client *TCPClient
			dial := vn.Dialer(ClientSource)
			first := true
			client = NewTCPClientOpts(map[quorum.ServerID]string{0: l.Addr().String()}, TCPClientOptions{
				Clock: sc,
				Dial: func(to quorum.ServerID, addr string) (net.Conn, error) {
					raw, err := dial(to, addr)
					if err != nil || !first {
						return raw, err
					}
					first = false
					return &resetOnWrite{Conn: raw, failed: func() bool {
						st := client.states[to]
						st.mu.Lock()
						defer st.mu.Unlock()
						return len(st.conns) == 0 || st.conns[0].isClosed()
					}}, nil
				},
			})
			ctx := context.Background()
			if _, err := client.Call(ctx, 0, wire.ReadRequest{Key: "a"}); !IsTransient(err) {
				t.Errorf("call on the reset stream: err = %v, want a transient failure", err)
			}
			resp, err := client.Call(ctx, 0, wire.ReadRequest{Key: "b"})
			if err != nil {
				t.Errorf("call after the reset: %v", err)
			} else if got := string(resp.(wire.ReadReply).Value); got != "B" {
				t.Errorf("call after the reset answered %q", got)
			}
			if got := vn.Stats().Dials; got != 2 {
				t.Errorf("%d dials, want 2: the second call must redial", got)
			}
			client.Close()
			srv.Close()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SimClock.Run did not return: the failed send left a tracked wake-up unconsumed")
	}
}
