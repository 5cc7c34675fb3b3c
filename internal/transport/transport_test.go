package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// echoHandler returns the request payload, optionally failing.
type echoHandler struct {
	id   int
	fail error
}

func (e *echoHandler) Handle(_ context.Context, req any) (any, error) {
	if e.fail != nil {
		return nil, e.fail
	}
	if _, ok := req.(wire.PingRequest); ok {
		return wire.PingReply{ServerID: e.id}, nil
	}
	return req, nil
}

func TestMemNetworkBasicCall(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(0, &echoHandler{id: 0})
	resp, err := n.Call(context.Background(), 0, wire.PingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(wire.PingReply); got.ServerID != 0 {
		t.Errorf("reply %+v", got)
	}
}

func TestMemNetworkUnknownServer(t *testing.T) {
	n := NewMemNetwork(1)
	_, err := n.Call(context.Background(), 42, wire.PingRequest{})
	if !errors.Is(err, ErrUnknownServer) {
		t.Errorf("err = %v, want ErrUnknownServer", err)
	}
}

func TestMemNetworkCrashRecover(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(3, &echoHandler{id: 3})
	n.Crash(3)
	if _, err := n.Call(context.Background(), 3, wire.PingRequest{}); !errors.Is(err, ErrCrashed) {
		t.Errorf("err = %v, want ErrCrashed", err)
	}
	if n.CrashedCount() != 1 {
		t.Errorf("CrashedCount = %d", n.CrashedCount())
	}
	n.Recover(3)
	if _, err := n.Call(context.Background(), 3, wire.PingRequest{}); err != nil {
		t.Errorf("after recover: %v", err)
	}
	if n.CrashedCount() != 0 {
		t.Errorf("CrashedCount after recover = %d", n.CrashedCount())
	}
}

func TestMemNetworkDropStatistics(t *testing.T) {
	n := NewMemNetwork(7)
	n.Register(0, &echoHandler{id: 0})
	n.SetDropProb(0.3)
	trials, drops := 20000, 0
	for i := 0; i < trials; i++ {
		if _, err := n.Call(context.Background(), 0, wire.PingRequest{}); errors.Is(err, ErrDropped) {
			drops++
		}
	}
	rate := float64(drops) / float64(trials)
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("drop rate %v, want ~0.3", rate)
	}
	n.SetDropProb(0)
	if _, err := n.Call(context.Background(), 0, wire.PingRequest{}); err != nil {
		t.Errorf("after clearing drops: %v", err)
	}
}

func TestMemNetworkPartition(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(0, &echoHandler{id: 0})
	n.Register(1, &echoHandler{id: 1})
	n.SetPartition(map[quorum.ServerID]int{0: 0, 1: 1})
	if _, err := n.Call(context.Background(), 0, wire.PingRequest{}); err != nil {
		t.Errorf("same-group call failed: %v", err)
	}
	if _, err := n.Call(context.Background(), 1, wire.PingRequest{}); !errors.Is(err, ErrPartitioned) {
		t.Errorf("cross-group err = %v, want ErrPartitioned", err)
	}
	n.ClearPartition()
	if _, err := n.Call(context.Background(), 1, wire.PingRequest{}); err != nil {
		t.Errorf("after healing: %v", err)
	}
}

func TestMemNetworkLatencyAndContext(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(0, &echoHandler{id: 0})
	n.SetLatency(5*time.Millisecond, 10*time.Millisecond)
	start := time.Now()
	if _, err := n.Call(context.Background(), 0, wire.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("latency not simulated: %v", elapsed)
	}
	// The cancellation half runs on a SimClock. Under the wall clock the
	// context's deadline and the latency sleep are two runtime timers, and
	// on a loaded machine the later one can be received first, with
	// ctx.Err() still nil; in virtual time the cancel at 1 ms is over before
	// the clock can reach the 5 ms the sleep needs.
	clk := vtime.NewSimClock()
	clk.Run(func() {
		n.SetClock(clk)
		ctx, cancel := context.WithCancel(context.Background())
		clk.AfterFunc(time.Millisecond, cancel)
		if _, err := n.Call(ctx, 0, wire.PingRequest{}); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want canceled", err)
		}
	})
}

func TestMemNetworkHandlerError(t *testing.T) {
	n := NewMemNetwork(1)
	boom := errors.New("boom")
	n.Register(0, &echoHandler{id: 0, fail: boom})
	if _, err := n.Call(context.Background(), 0, wire.PingRequest{}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestMemNetworkConcurrent(t *testing.T) {
	n := NewMemNetwork(1)
	for id := 0; id < 8; id++ {
		n.Register(quorum.ServerID(id), &echoHandler{id: id})
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := quorum.ServerID((g + i) % 8)
				resp, err := n.Call(context.Background(), id, wire.PingRequest{})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if resp.(wire.PingReply).ServerID != int(id) {
					t.Errorf("cross-talk: asked %d got %d", id, resp.(wire.PingReply).ServerID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := ListenTCPCodec("127.0.0.1:0", &echoHandler{id: 5}, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClientOpts(map[quorum.ServerID]string{5: srv.Addr()}, TCPClientOptions{})
	defer client.Close()
	resp, err := client.Call(context.Background(), 5, wire.PingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(wire.PingReply).ServerID != 5 {
		t.Errorf("reply %+v", resp)
	}
	// Round-trip a full write request through the codec.
	wreq := wire.WriteRequest{Key: "k", Value: []byte("v")}
	if resp, err = client.Call(context.Background(), 5, wreq); err != nil {
		t.Fatal(err)
	}
	if got := resp.(wire.WriteRequest); got.Key != "k" || string(got.Value) != "v" {
		t.Errorf("echoed write = %+v", got)
	}
}

func TestTCPServerError(t *testing.T) {
	srv, err := ListenTCPCodec("127.0.0.1:0", &echoHandler{id: 1, fail: errors.New("storage exploded")}, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClientOpts(map[quorum.ServerID]string{1: srv.Addr()}, TCPClientOptions{})
	defer client.Close()
	_, err = client.Call(context.Background(), 1, wire.PingRequest{})
	if err == nil || err.Error() != "server 1: storage exploded" {
		t.Errorf("err = %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	srv, err := ListenTCPCodec("127.0.0.1:0", &echoHandler{id: 2}, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClientOpts(map[quorum.ServerID]string{2: srv.Addr()}, TCPClientOptions{})
	defer client.Close()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				resp, err := client.Call(context.Background(), 2, wire.ReadRequest{Key: key})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if got := resp.(wire.ReadRequest).Key; got != key {
					t.Errorf("multiplexing mixed replies: want %q got %q", key, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTCPUnknownServer(t *testing.T) {
	client := NewTCPClientOpts(nil, TCPClientOptions{})
	defer client.Close()
	if _, err := client.Call(context.Background(), 9, wire.PingRequest{}); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("err = %v, want ErrUnknownServer", err)
	}
}

func TestTCPClientClose(t *testing.T) {
	srv, err := ListenTCPCodec("127.0.0.1:0", &echoHandler{id: 0}, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClientOpts(map[quorum.ServerID]string{0: srv.Addr()}, TCPClientOptions{})
	if _, err := client.Call(context.Background(), 0, wire.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(context.Background(), 0, wire.PingRequest{}); !errors.Is(err, ErrClosed) {
		t.Errorf("after close: %v, want ErrClosed", err)
	}
}

func TestTCPServerCloseFailsPendingCalls(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		<-block
		return req, nil
	})
	srv, err := ListenTCPCodec("127.0.0.1:0", h, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCPClientOpts(map[quorum.ServerID]string{0: srv.Addr()}, TCPClientOptions{})
	defer client.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), 0, wire.PingRequest{})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the server
	close(block)
	srv.Close()
	select {
	case err := <-errc:
		if err != nil && !IsTransient(err) {
			t.Errorf("pending call returned unexpected error class: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call never completed after server close")
	}
}

func TestTCPContextCancellation(t *testing.T) {
	h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		time.Sleep(200 * time.Millisecond)
		return req, nil
	})
	srv, err := ListenTCPCodec("127.0.0.1:0", h, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClientOpts(map[quorum.ServerID]string{0: srv.Addr()}, TCPClientOptions{})
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Call(ctx, 0, wire.PingRequest{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Error("call did not honor context deadline")
	}
}

// TestTCPBothCodecsRoundTrip runs the full request/reply exchange under each
// codec, including an error reply and a payload with nil and empty slices.
func TestTCPBothCodecsRoundTrip(t *testing.T) {
	echo := &echoHandler{id: 9}
	h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		if r, ok := req.(wire.ReadRequest); ok && r.Key == "boom" {
			return nil, errors.New("handler: boom")
		}
		return echo.Handle(ctx, req)
	})
	for _, codec := range []Codec{CodecBinary, CodecBinaryFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			srv, err := ListenTCPCodec("127.0.0.1:0", h, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if srv.Codec() != codec {
				t.Fatalf("server codec %v", srv.Codec())
			}
			client := NewTCPClientOpts(map[quorum.ServerID]string{9: srv.Addr()}, TCPClientOptions{Codec: codec})
			defer client.Close()
			resp, err := client.Call(context.Background(), 9, wire.PingRequest{})
			if err != nil {
				t.Fatal(err)
			}
			if resp.(wire.PingReply).ServerID != 9 {
				t.Errorf("ping reply %+v", resp)
			}
			wreq := wire.WriteRequest{Key: "k", Value: []byte{}, Sig: nil}
			resp, err = client.Call(context.Background(), 9, wreq)
			if err != nil {
				t.Fatal(err)
			}
			got := resp.(wire.WriteRequest)
			if got.Key != "k" || len(got.Value) != 0 || len(got.Sig) != 0 {
				t.Errorf("echoed write = %+v", got)
			}
			_, err = client.Call(context.Background(), 9, wire.ReadRequest{Key: "boom"})
			var rpcErr *RPCError
			if !errors.As(err, &rpcErr) || rpcErr.Msg != "handler: boom" || rpcErr.Server != 9 {
				t.Errorf("error reply = %v, want the handler's error as an *RPCError from server 9", err)
			}
		})
	}
}

// TestTCPServerCloseCancelsHandlerContext locks in the per-connection
// context: a handler blocked on ctx.Done must be released by Close (with
// context.Background it would deadlock Close forever).
func TestTCPServerCloseCancelsHandlerContext(t *testing.T) {
	started := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		close(started)
		<-ctx.Done() // only Close (or conn teardown) can release this
		return nil, ctx.Err()
	})
	srv, err := ListenTCPCodec("127.0.0.1:0", h, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCPClientOpts(map[quorum.ServerID]string{0: srv.Addr()}, TCPClientOptions{})
	defer client.Close()
	go client.Call(context.Background(), 0, wire.PingRequest{})
	<-started
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: in-flight handler context was not cancelled")
	}
}

// TestTCPStatsAndCoalescing drives concurrent calls through one connection
// and checks the wire counters: every frame accounted for, and flushes +
// coalesced writes summing to frames written (the coalescing invariant).
func TestTCPStatsAndCoalescing(t *testing.T) {
	srv, err := ListenTCPCodec("127.0.0.1:0", &echoHandler{id: 2}, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClientOpts(map[quorum.ServerID]string{2: srv.Addr()}, TCPClientOptions{})
	defer client.Close()
	const goroutines, calls = 16, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := client.Call(context.Background(), 2, wire.ReadRequest{Key: "k"}); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const total = goroutines * calls
	cs, ss := client.Stats(), srv.Stats()
	if cs.Conns != 1 || ss.Conns != 1 {
		t.Errorf("conns: client %d server %d, want 1", cs.Conns, ss.Conns)
	}
	if cs.FramesWritten != total || cs.FramesRead != total {
		t.Errorf("client frames: wrote %d read %d, want %d", cs.FramesWritten, cs.FramesRead, total)
	}
	if ss.FramesRead != total || ss.FramesWritten != total {
		t.Errorf("server frames: read %d wrote %d, want %d", ss.FramesRead, ss.FramesWritten, total)
	}
	for name, s := range map[string]TCPStats{"client": cs, "server": ss} {
		if s.Flushes+s.WritesCoalesced != s.FramesWritten {
			t.Errorf("%s: flushes %d + coalesced %d != frames written %d",
				name, s.Flushes, s.WritesCoalesced, s.FramesWritten)
		}
		if s.BytesWritten == 0 || s.BytesRead == 0 {
			t.Errorf("%s: byte counters did not advance: %+v", name, s)
		}
	}
}

// sinkConn is a net.Conn stub for driving a frameWriter directly: every Write
// sleeps delay (a socket slower than the producers feeding it), fails with
// failErr from the failAt-th Write on (1-based; 0 = never), and is recorded.
type sinkConn struct {
	net.Conn // panics if any unimplemented method is called
	delay    time.Duration
	failAt   int
	failErr  error

	mu     sync.Mutex
	writes int
	bytes  uint64
}

func (c *sinkConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.failAt > 0 && c.writes >= c.failAt {
		return 0, c.failErr
	}
	c.bytes += uint64(len(p))
	return len(p), nil
}

func (c *sinkConn) seen() (writes int, bytes uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.bytes
}

// TestFrameWriterCoalesces drives 16 concurrent writers into a frameWriter
// over a sink that takes 2 ms per Write and asserts that frames actually
// shared Writes: while the leader is inside one slow Write, later writers
// append behind it and ride its next one. Every writer has returned only
// once pending is empty, so the counters are final without any waiting:
// one conn.Write is one flush, every extra frame in it is coalesced.
func TestFrameWriterCoalesces(t *testing.T) {
	var stats tcpCounters
	sink := &sinkConn{delay: 2 * time.Millisecond}
	w := newFrameWriter(sink, &stats)
	const writers, frames = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := w.writeFrame([]byte("frame-body")); err != nil {
					t.Errorf("writeFrame: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := stats.snapshot()
	writes, bytes := sink.seen()
	if s.FramesWritten != writers*frames {
		t.Fatalf("frames written %d, want %d", s.FramesWritten, writers*frames)
	}
	if s.WritesCoalesced == 0 {
		t.Errorf("no coalescing under %d concurrent writers: %+v", writers, s)
	}
	if s.Flushes != uint64(writes) || s.Flushes+s.WritesCoalesced != s.FramesWritten {
		t.Errorf("flush accounting: %d conn.Writes, %+v", writes, s)
	}
	if bytes != s.BytesWritten {
		t.Errorf("sink received %d bytes, writer counted %d: frames left behind", bytes, s.BytesWritten)
	}
	w.mu.Lock()
	if len(w.pending) != 0 || w.flushing {
		t.Errorf("writer not idle after its writers returned: %d bytes pending, flushing=%v", len(w.pending), w.flushing)
	}
	w.mu.Unlock()
}

// TestFrameWriterStickyError: the Write that fails hands its error to the
// writer leading that flush as its return value, and to every later writer
// without touching the connection again. The frames are request envelopes
// as each codec encodes them.
func TestFrameWriterStickyError(t *testing.T) {
	boom := errors.New("sink: broken pipe")
	for _, codec := range []Codec{CodecBinary, CodecBinaryFlate} {
		var stats tcpCounters
		sink := &sinkConn{failAt: 2, failErr: boom}
		w := newFrameWriter(sink, &stats)
		env := wire.Envelope{ID: 1, Payload: wire.WriteRequest{Key: "k", Value: bytes.Repeat([]byte("v"), 1024)}}
		write := func() error {
			var frame []byte
			var err error
			if codec == CodecBinaryFlate {
				frame, _, err = wire.AppendEnvelopeFlate(nil, env)
			} else {
				frame, err = wire.AppendEnvelope(nil, env)
			}
			if err != nil {
				t.Fatalf("%v: encode: %v", codec, err)
			}
			return w.writeFrame(frame)
		}
		if err := write(); err != nil {
			t.Fatalf("%v: first write: %v", codec, err)
		}
		if err := write(); !errors.Is(err, boom) {
			t.Fatalf("%v: the leader of the failing flush got %v, want %v", codec, err, boom)
		}
		for i := 0; i < 3; i++ {
			if err := write(); !errors.Is(err, boom) {
				t.Fatalf("%v: later write %d got %v, want the sticky %v", codec, i, err, boom)
			}
		}
		if writes, _ := sink.seen(); writes != 2 {
			t.Errorf("%v: %d conn.Writes, want 2 (nothing is written past the error)", codec, writes)
		}
		// close() after a write error keeps the first cause.
		w.close()
		if err := write(); !errors.Is(err, boom) {
			t.Errorf("%v: write after close got %v, want %v", codec, err, boom)
		}
	}
}

// blockedConn is a net.Conn stub whose Write blocks until Close, then fails
// with net.ErrClosed: a peer that has stopped reading.
type blockedConn struct {
	net.Conn
	entered chan struct{} // one token per Write that has begun blocking
	closed  chan struct{}
	once    sync.Once
}

func newBlockedConn() *blockedConn {
	// 64: more Writes than any test below can have blocked at once, so
	// announcing one never blocks.
	return &blockedConn{entered: make(chan struct{}, 64), closed: make(chan struct{})}
}

func (c *blockedConn) Write(p []byte) (int, error) {
	c.entered <- struct{}{}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *blockedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestFrameWriterCloseDuringFlush closes the writer while its leader is
// blocked inside conn.Write with followers' frames queued behind it: close
// must return at once (it waits for nobody), the followers must already have
// returned, the leader must come back with an error as soon as the
// connection dies, and later writes must fail. (That nothing is left
// running is leak_test.go's TestTCPClientCloseDuringBlockedFlush.)
func TestFrameWriterCloseDuringFlush(t *testing.T) {
	var stats tcpCounters
	conn := newBlockedConn()
	w := newFrameWriter(conn, &stats)

	leader := make(chan error, 1)
	go func() { leader <- w.writeFrame([]byte("leader")) }()
	<-conn.entered // the leader is inside Write, holding no lock
	for i := 0; i < 4; i++ {
		if err := w.writeFrame([]byte("follower")); err != nil {
			t.Fatalf("follower %d: %v (a follower appends and returns)", i, err)
		}
	}
	closed := make(chan struct{})
	go func() {
		conn.Close() // callers close the connection first
		w.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close() hung behind an in-flight flush")
	}
	select {
	case err := <-leader:
		if err == nil {
			t.Error("leader returned nil from a flush its connection died under")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leader never returned after the connection closed")
	}
	if err := w.writeFrame([]byte("late")); err == nil {
		t.Error("write after close succeeded")
	}
	if s := stats.snapshot(); s.Flushes != 1 {
		t.Errorf("%d flushes, want 1: nothing may be written after the failure", s.Flushes)
	}
}

// TestFrameWriterDropsHugeBuffers: a frame over 1 MiB must not stay pinned in
// the pending/spare pair once it is on the wire (same cap as frameBufPool and
// wire.PutBuffer), whether it was the leader's own frame or one appended
// behind a flush in progress.
func TestFrameWriterDropsHugeBuffers(t *testing.T) {
	var stats tcpCounters
	huge := make([]byte, 2<<20)
	check := func(w *frameWriter, when string) {
		t.Helper()
		w.mu.Lock()
		defer w.mu.Unlock()
		if cap(w.pending) > 1<<20 || cap(w.spare) > 1<<20 {
			t.Errorf("%s: buffers pinned: cap(pending)=%d cap(spare)=%d", when, cap(w.pending), cap(w.spare))
		}
	}
	w := newFrameWriter(&sinkConn{}, &stats)
	for i := 0; i < 3; i++ { // cycle both buffers through the leader's hands
		if err := w.writeFrame([]byte("small")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.writeFrame(huge); err != nil {
		t.Fatal(err)
	}
	check(w, "huge frame led its own flush")
	if err := w.writeFrame([]byte("small")); err != nil {
		t.Fatal(err)
	}
	check(w, "small frame after it")

	// The huge frame arrives as a follower, mid-flush.
	slow := &sinkConn{delay: 20 * time.Millisecond}
	w = newFrameWriter(slow, &stats)
	done := make(chan error, 1)
	go func() { done <- w.writeFrame([]byte("leader")) }()
	for {
		w.mu.Lock()
		flushing := w.flushing
		w.mu.Unlock()
		if flushing {
			break
		}
		runtime.Gosched()
	}
	if err := w.writeFrame(huge); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	check(w, "huge frame rode a follower's slot")
	if writes, _ := slow.seen(); writes != 2 {
		t.Errorf("%d conn.Writes, want 2 (leader's frame, then the follower's)", writes)
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrCrashed, true},
		{ErrDropped, true},
		{ErrPartitioned, true},
		{ErrClosed, true},
		{fmt.Errorf("server 3: %w", ErrCrashed), true},
		{context.DeadlineExceeded, true},
		{context.Canceled, true},
		{errors.New("byzantine reply"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestMemNetworkSetDropProbPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMemNetwork(1).SetDropProb(1.5)
}
