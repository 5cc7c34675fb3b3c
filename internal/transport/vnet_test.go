package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// --- raw conn semantics (wall clock: the conn must behave like a socket
// under either time source) ---------------------------------------------

func vpair(t *testing.T, vn *VirtualNet, id quorum.ServerID) (client, server net.Conn) {
	t.Helper()
	l, err := vn.Listen(id)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cl, err := vn.dial(ClientSource, id)
	if err != nil {
		t.Fatal(err)
	}
	sv, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	return cl, sv
}

// TestVirtualConnSplitFrames writes one logical frame in several chunks and
// reads it back through partial reads: the stream must reassemble exactly,
// in order, regardless of chunk boundaries — and, on the wall clock, when
// each chunk draws its own delay, so a later chunk may ask to land before an
// earlier one.
func TestVirtualConnSplitFrames(t *testing.T) {
	for _, row := range []struct {
		name   string
		jitter time.Duration
	}{
		{"no delay", 0},
		{"per-chunk jitter", 3 * time.Millisecond},
	} {
		t.Run(row.name, func(t *testing.T) {
			vn := NewVirtualNet(nil, 1)
			vn.SetJitter(row.jitter)
			cl, sv := vpair(t, vn, 7)
			defer cl.Close()
			defer sv.Close()

			payload := []byte("length-prefixed frame split across many writes")
			go func() {
				for i := 0; i < len(payload); i += 5 {
					end := i + 5
					if end > len(payload) {
						end = len(payload)
					}
					if _, err := cl.Write(payload[i:end]); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}()
			got := make([]byte, 0, len(payload))
			buf := make([]byte, 3) // deliberately tiny reads
			for len(got) < len(payload) {
				n, err := sv.Read(buf)
				if err != nil {
					t.Fatalf("read after %d bytes: %v", len(got), err)
				}
				got = append(got, buf[:n]...)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("stream reassembled wrong:\n got %q\nwant %q", got, payload)
			}
		})
	}
}

// TestVirtualConnHalfCloseMidFrame closes the writer with bytes still in
// flight: the reader must drain every delivered byte BEFORE seeing io.EOF
// (TCP's FIN ordering), even when the close lands mid-frame.
func TestVirtualConnHalfCloseMidFrame(t *testing.T) {
	vn := NewVirtualNet(nil, 2)
	vn.SetLatency(time.Millisecond, 2*time.Millisecond)
	cl, sv := vpair(t, vn, 3)
	defer sv.Close()

	// A "frame" whose writer dies after the length prefix and half the body.
	if _, err := cl.Write([]byte{0x20}); err != nil { // prefix: 32-byte body
		t.Fatal(err)
	}
	half := bytes.Repeat([]byte{0xAB}, 16)
	if _, err := cl.Write(half); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	got, err := io.ReadAll(sv)
	if err != nil {
		t.Fatalf("ReadAll: %v", err) // io.EOF is swallowed by ReadAll
	}
	want := append([]byte{0x20}, half...)
	if !bytes.Equal(got, want) {
		t.Fatalf("reader saw %x, want the partial frame %x then EOF", got, want)
	}
	// And the local end is really closed.
	if _, err := cl.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after close: %v, want net.ErrClosed", err)
	}
}

// TestVirtualConnReset checks RST semantics: both ends fail promptly,
// buffered data is discarded, and the error is transient.
func TestVirtualConnReset(t *testing.T) {
	vn := NewVirtualNet(nil, 3)
	cl, sv := vpair(t, vn, 9)
	if _, err := cl.Write([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	vn.Crash(9)
	if _, err := sv.Read(make([]byte, 8)); err == nil || !IsTransient(err) {
		t.Fatalf("read on reset conn: %v, want transient error", err)
	}
	if _, err := cl.Write([]byte("x")); err == nil || !IsTransient(err) {
		t.Fatalf("write on reset conn: %v, want transient error", err)
	}
	// Crashed address refuses dials until recovered.
	if _, err := vn.dial(ClientSource, 9); !errors.Is(err, ErrCrashed) {
		t.Fatalf("dial crashed server: %v, want ErrCrashed", err)
	}
	vn.Recover(9)
	if _, err := vn.dial(ClientSource, 9); err != nil {
		t.Fatalf("dial after recover: %v", err)
	}
}

// --- the full TCP stack over VirtualNet ---------------------------------

// upperHandler replies with the request's key upper-cased, so the test can
// verify end-to-end decode → handle → encode.
type upperHandler struct{}

func (upperHandler) Handle(_ context.Context, req any) (any, error) {
	r, ok := req.(wire.ReadRequest)
	if !ok {
		return nil, wire.PermanentError(fmt.Errorf("unexpected request %T", req))
	}
	return wire.ReadReply{Found: true, Value: []byte(strings.ToUpper(r.Key))}, nil
}

// startVirtualCluster stands up n TCP servers over vn and a client that
// reaches them, all on clk.
func startVirtualCluster(t testing.TB, vn *VirtualNet, clk vtime.Clock, n int, timeout time.Duration) (*TCPClient, []*TCPServer) {
	t.Helper()
	servers := make([]*TCPServer, 0, n)
	addrs := make(map[quorum.ServerID]string, n)
	for i := 0; i < n; i++ {
		id := quorum.ServerID(i)
		l, err := vn.Listen(id)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, ServeListener(l, upperHandler{}, TCPOptions{Clock: clk}))
		addrs[id] = l.Addr().String()
	}
	client := NewTCPClientOpts(addrs, TCPClientOptions{
		Clock:       clk,
		Dial:        vn.Dialer(ClientSource),
		CallTimeout: timeout,
	})
	return client, servers
}

// TestVirtualTCPRoundTripSimClock runs the real TCP stack — framing, binary
// codec, leader-flushed frame writer, read-loop dispatch — over virtual-time
// byte streams inside a SimClock, with per-chunk latency. The run must
// complete instantly in wall time while covering real virtual duration.
func TestVirtualTCPRoundTripSimClock(t *testing.T) {
	sc := vtime.NewSimClock()
	var elapsed time.Duration
	sc.Run(func() {
		vn := NewVirtualNet(sc, 42)
		vn.SetLatency(5*time.Millisecond, 20*time.Millisecond)
		client, servers := startVirtualCluster(t, vn, sc, 4, time.Second)
		ctx := context.Background()
		for round := 0; round < 5; round++ {
			for id := 0; id < 4; id++ {
				resp, err := client.Call(ctx, quorum.ServerID(id), wire.ReadRequest{Key: fmt.Sprintf("k%d-%d", round, id)})
				if err != nil {
					t.Errorf("call %d/%d: %v", round, id, err)
					continue
				}
				want := strings.ToUpper(fmt.Sprintf("k%d-%d", round, id))
				if rr := resp.(wire.ReadReply); string(rr.Value) != want {
					t.Errorf("call %d/%d: got %q want %q", round, id, rr.Value, want)
				}
			}
		}
		client.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	elapsed = sc.Elapsed()
	if elapsed < 50*time.Millisecond {
		t.Fatalf("virtual elapsed %v; latency is not reaching the byte streams", elapsed)
	}
	t.Logf("20 RPCs covered %v virtual", elapsed)
}

// TestVirtualTCPDeterminism replays the same seeded workload twice over the
// virtual TCP stack and requires identical virtual-time traces: per-call
// completion timestamps AND every counter of the network — the data plane's
// replay contract at byte granularity. A frame is handed to its vconn on the
// writer's own stack at the instant it is written, so the chunk count is a
// pure function of the event order: the second half of the workload fans
// each round out to all servers at once (one frame per connection per
// instant, as the harnesses do) and must replay as exactly as the serial
// half.
func TestVirtualTCPDeterminism(t *testing.T) {
	type trace struct {
		stamps []time.Duration
		stats  VNetStats
	}
	const servers = 6
	run := func() trace {
		sc := vtime.NewSimClock()
		var tr trace
		sc.Run(func() {
			vn := NewVirtualNet(sc, 7)
			vn.SetLatency(time.Millisecond, 9*time.Millisecond)
			vn.SetJitter(500 * time.Microsecond)
			client, srvs := startVirtualCluster(t, vn, sc, servers, time.Second)
			ctx := context.Background()
			call := func(i int, id quorum.ServerID) {
				if _, err := client.Call(ctx, id, wire.ReadRequest{Key: fmt.Sprintf("k%d", i)}); err != nil {
					t.Errorf("call %d to %d: %v", i, id, err)
				}
			}
			for i := 0; i < 30; i++ {
				call(i, quorum.ServerID(i%servers))
				tr.stamps = append(tr.stamps, sc.Elapsed())
			}
			for round := 0; round < 10; round++ {
				wg := vtime.NewWaitGroup(sc)
				for id := 0; id < servers; id++ {
					id := quorum.ServerID(id)
					wg.Add(1)
					sc.Go(func() {
						defer wg.Done()
						call(round, id)
					})
				}
				wg.Wait()
				tr.stamps = append(tr.stamps, sc.Elapsed())
			}
			tr.stats = vn.Stats()
			client.Close()
			for _, s := range srvs {
				s.Close()
			}
		})
		return tr
	}
	a, b := run(), run()
	if a.stats != b.stats {
		t.Fatalf("network counters diverged:\n%+v\n%+v", a.stats, b.stats)
	}
	// One request chunk and one reply chunk per call: nothing coalesces when
	// each connection carries one frame per instant, and nothing splits.
	if want := uint64(2 * (30 + 10*servers)); a.stats.Chunks != want {
		t.Errorf("%d chunks for %d calls, want %d", a.stats.Chunks, want/2, want)
	}
	for i := range a.stamps {
		if a.stamps[i] != b.stamps[i] {
			t.Fatalf("step %d completed at %v vs %v: virtual TCP is not replaying", i, a.stamps[i], b.stamps[i])
		}
	}
	t.Logf("%d calls, %d chunks (%d bytes) replayed bit-identically", a.stats.Chunks/2, a.stats.Chunks, a.stats.ChunkBytes)
}

// TestVirtualTCPServerCloseWithCallInFlight closes the server while a call
// is somewhere between its request frame and its reply frame: teardown must
// not deadlock or leak goroutines, and the client must observe a transient
// failure or the reply, not a hang.
func TestVirtualTCPServerCloseWithCallInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	sc := vtime.NewSimClock()
	sc.Run(func() {
		vn := NewVirtualNet(sc, 11)
		client, servers := startVirtualCluster(t, vn, sc, 1, 100*time.Millisecond)
		ctx := context.Background()
		// Prime the connection.
		if _, err := client.Call(ctx, 0, wire.ReadRequest{Key: "warm"}); err != nil {
			t.Errorf("warm call: %v", err)
		}
		// Close the server immediately after issuing a call; wherever its
		// frames are (request in flight, reply written or not), teardown
		// must converge and the call must resolve with an error or a reply.
		done := vtime.NewChan[struct{}](vtime.SchedOf(sc), 1)
		sc.Go(func() {
			defer done.Send(struct{}{})
			_, err := client.Call(ctx, 0, wire.ReadRequest{Key: "racing"})
			if err != nil && !IsTransient(err) {
				t.Errorf("racing call failed non-transiently: %v", err)
			}
		})
		servers[0].Close()
		done.Recv()
		client.Close()
	})
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines leaked past teardown:\n%s", n-base, buf[:runtime.Stack(buf, true)])
	}
}

// TestVirtualTCPCallTimeout poisons a server's reply stream (every reply id
// corrupted via byte-level corruption is hard to aim; instead the server is
// blocked after the request leaves) and checks that the clock-driven call
// timeout fires deterministically instead of hanging the virtual world.
func TestVirtualTCPCallTimeout(t *testing.T) {
	sc := vtime.NewSimClock()
	var elapsed time.Duration
	sc.Run(func() {
		vn := NewVirtualNet(sc, 13)
		// A server that never replies: its handler parks on a timer far in
		// the future relative to the call timeout.
		l, err := vn.Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		stall := ServeListener(l, HandlerFunc(func(ctx context.Context, req any) (any, error) {
			sc.Sleep(time.Hour)
			return wire.ReadReply{}, nil
		}), TCPOptions{Clock: sc})
		client := NewTCPClientOpts(map[quorum.ServerID]string{0: l.Addr().String()}, TCPClientOptions{
			Clock: sc, Dial: vn.Dialer(ClientSource), CallTimeout: 50 * time.Millisecond,
		})
		start := sc.Elapsed()
		_, err = client.Call(context.Background(), 0, wire.ReadRequest{Key: "void"})
		elapsed = sc.Elapsed() - start
		if err == nil || !IsTransient(err) {
			t.Errorf("call into stalled server: %v, want transient timeout", err)
		}
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Errorf("timeout error does not report Timeout(): %v", err)
		}
		client.Close()
		// Close waits out the handler's hour-long sleep — virtual time, so
		// it completes instantly while proving teardown converges even with
		// a handler mid-sleep.
		stall.Close()
	})
	if elapsed != 50*time.Millisecond {
		t.Fatalf("timeout fired after %v, want exactly the 50ms call timeout", elapsed)
	}
}

// TestCallDeadlinesFireInSendOrder: three calls on one connection, sent
// 10 ms apart with a 50 ms call timeout, to a server that answers only the
// calls a row names. The oldest unanswered call times out at its own send +
// 50 ms, however many replies came before it, and tears the connection down:
// the calls behind it end then, with ErrClosed. Under a SimClock every
// instant is exact; under the wall clock a call never ends before its due
// time, and each ends the way the row says.
func TestCallDeadlinesFireInSendOrder(t *testing.T) {
	const gap, timeout = 10 * time.Millisecond, 50 * time.Millisecond
	rows := []struct {
		name   string
		answer [3]bool
		want   [3]string     // how each call ends: reply, timeout or closed
		at     time.Duration // when the timeout fires, from the first send
	}{
		{"none answered", [3]bool{}, [3]string{"timeout", "closed", "closed"}, 50 * time.Millisecond},
		{"middle answered", [3]bool{false, true, false}, [3]string{"timeout", "reply", "closed"}, 50 * time.Millisecond},
		{"first answered", [3]bool{true, false, false}, [3]string{"reply", "timeout", "closed"}, 60 * time.Millisecond},
		{"first two answered", [3]bool{true, true, false}, [3]string{"reply", "reply", "timeout"}, 70 * time.Millisecond},
	}
	kind := func(err error) string {
		switch {
		case err == nil:
			return "reply"
		case errors.Is(err, errCallTimeout):
			return "timeout"
		case errors.Is(err, ErrClosed):
			return "closed"
		}
		return err.Error()
	}
	// run makes the row's three calls on clk (nil: the wall clock) and
	// returns when each was sent and when it ended, and how.
	run := func(t *testing.T, clk vtime.Clock, answer [3]bool) (sent, ended [3]time.Time, how [3]string) {
		now := vtime.Or(clk).Now
		vn := NewVirtualNet(clk, 1)
		l, err := vn.Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		srv := ServeListener(l, HandlerFunc(func(ctx context.Context, req any) (any, error) {
			if req.(wire.ReadRequest).Key == "hang" {
				vtime.Or(clk).SleepCtx(ctx, time.Hour)
				return nil, ctx.Err()
			}
			return wire.ReadReply{Found: true}, nil
		}), TCPOptions{Clock: clk})
		client := NewTCPClientOpts(map[quorum.ServerID]string{0: l.Addr().String()}, TCPClientOptions{
			Clock: clk, Dial: vn.Dialer(ClientSource), CallTimeout: timeout,
		})
		ctx := context.Background()
		if _, err := client.Call(ctx, 0, wire.ReadRequest{Key: "reply"}); err != nil {
			t.Fatalf("establishing the connection: %v", err)
		}
		done := vtime.NewWaitGroup(clk)
		for i := range answer {
			if i > 0 {
				vtime.Or(clk).Sleep(gap)
			}
			key := "hang"
			if answer[i] {
				key = "reply"
			}
			done.Add(1)
			sent[i] = now()
			if !client.Start(ctx, 0, wire.ReadRequest{Key: key}, func(_ any, err error) {
				ended[i], how[i] = now(), kind(err)
				done.Done()
			}) {
				t.Fatalf("call %d declined on an established connection", i)
			}
		}
		done.Wait()
		client.Close()
		srv.Close()
		return sent, ended, how
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Run("SimClock", func(t *testing.T) {
				sc := vtime.NewSimClock()
				var sent, ended [3]time.Time
				var how [3]string
				sc.Run(func() { sent, ended, how = run(t, sc, row.answer) })
				for i := range how {
					want := sent[0].Add(row.at)
					if row.want[i] == "reply" {
						want = sent[i]
					}
					if how[i] != row.want[i] || !ended[i].Equal(want) {
						t.Errorf("call %d (sent at +%v) ended by %s at +%v, want by %s at +%v",
							i, sent[i].Sub(sent[0]), how[i], ended[i].Sub(sent[0]), row.want[i], want.Sub(sent[0]))
					}
				}
			})
			t.Run("wall clock", func(t *testing.T) {
				sent, ended, how := run(t, nil, row.answer)
				due := sent[slices.Index(row.want[:], "timeout")].Add(timeout)
				for i := range how {
					if how[i] != row.want[i] {
						t.Errorf("call %d ended by %s, want by %s", i, how[i], row.want[i])
					}
					if row.want[i] != "reply" && ended[i].Before(due) {
						t.Errorf("call %d ended %v before the timeout was due", i, due.Sub(ended[i]))
					}
				}
			})
		})
	}
}

// FuzzVNetFaultInjector drives arbitrary payloads and fault probabilities
// through a virtual conn pair and asserts the stream invariants: without a
// reset the reader sees exactly len(payload) bytes in write order (bit
// flips change content, never length or order), and with a reset both ends
// fail transiently — the injector can kill a stream but never corrupt its
// framing silently or panic.
func FuzzVNetFaultInjector(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), []byte("hello virtual wire"))
	f.Add(int64(7), uint8(40), uint8(0), []byte("droppy"))
	f.Add(int64(9), uint8(0), uint8(200), bytes.Repeat([]byte{0x5A}, 300))
	f.Add(int64(3), uint8(25), uint8(25), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, dropP, corruptP uint8, payload []byte) {
		vn := NewVirtualNet(nil, seed)
		vn.SetDrop(float64(dropP) / 255 / 2)       // up to ~0.5
		vn.SetCorrupt(float64(corruptP) / 255 / 2) // up to ~0.5
		vn.SetLatency(0, time.Microsecond)
		l, err := vn.Listen(1)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := l.Accept()
			if err == nil {
				accepted <- c
			} else {
				close(accepted)
			}
		}()
		cl, err := vn.dial(ClientSource, 1)
		if err != nil {
			t.Fatal(err)
		}
		sv, ok := <-accepted
		if !ok {
			t.Fatal("accept failed")
		}
		defer sv.Close()

		writeErr := make(chan error, 1)
		go func() {
			var werr error
			for i := 0; i < len(payload) && werr == nil; i += 7 {
				end := i + 7
				if end > len(payload) {
					end = len(payload)
				}
				_, werr = cl.Write(payload[i:end])
			}
			if werr == nil {
				cl.Close()
			}
			writeErr <- werr
		}()

		got, rerr := io.ReadAll(sv)
		werr := <-writeErr
		if werr == nil && rerr == nil {
			if len(got) != len(payload) {
				t.Fatalf("no fault surfaced but stream length changed: wrote %d read %d", len(payload), len(got))
			}
		} else {
			// A surfaced fault must be the reset, and it must be transient.
			for _, e := range []error{werr, rerr} {
				if e != nil && !IsTransient(e) {
					t.Fatalf("fault surfaced as non-transient error: %v", e)
				}
			}
		}
	})
}
