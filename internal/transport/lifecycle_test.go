package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// lifecycleCluster stands up n virtual TCP servers and a lifecycle-enabled
// client whose dialer is wrapped by wrap (nil = the plain VirtualNet
// dialer).
func lifecycleCluster(t testing.TB, vn *VirtualNet, clk vtime.Clock, n int, lc LifecycleConfig,
	wrap func(inner func(quorum.ServerID, string) (net.Conn, error)) func(quorum.ServerID, string) (net.Conn, error),
) (*TCPClient, []*TCPServer) {
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
	dial := vn.Dialer(ClientSource)
	if wrap != nil {
		dial = wrap(dial)
	}
	client := NewTCPClientOpts(addrs, TCPClientOptions{
		Clock:       clk,
		Dial:        dial,
		CallTimeout: time.Second,
		Lifecycle:   lc,
	})
	return client, servers
}

// TestLifecyclePoolGrowth checks the pool's two laws: sequential traffic
// stays on one connection, and the pool grows one connection at a time only
// while every live connection is busy, never past PoolSize.
func TestLifecyclePoolGrowth(t *testing.T) {
	sc := vtime.NewSimClock()
	sc.Run(func() {
		vn := NewVirtualNet(sc, 11)
		vn.SetLatency(time.Millisecond, 2*time.Millisecond)
		client, servers := lifecycleCluster(t, vn, sc, 1, LifecycleConfig{PoolSize: 3}, nil)
		defer func() {
			client.Close()
			for _, s := range servers {
				s.Close()
			}
		}()
		ctx := context.Background()

		for i := 0; i < 5; i++ {
			if _, err := client.Call(ctx, 0, wire.ReadRequest{Key: "seq"}); err != nil {
				t.Fatalf("sequential call %d: %v", i, err)
			}
		}
		if got := client.Stats().Conns; got != 1 {
			t.Fatalf("sequential traffic used %d conns, want 1", got)
		}

		// 8 concurrent calls against PoolSize 3: the pool must grow to the
		// cap and stop there.
		sched := vtime.SchedOf(sc)
		wg := vtime.NewWaitGroup(sc)
		wg.Add(8)
		for i := 0; i < 8; i++ {
			sched.Go(func() {
				defer wg.Done()
				if _, err := client.Call(ctx, 0, wire.ReadRequest{Key: "par"}); err != nil {
					t.Errorf("concurrent call: %v", err)
				}
			})
		}
		wg.Wait()
		if got := client.Stats().Conns; got < 2 || got > 3 {
			t.Fatalf("concurrent traffic used %d conns, want 2..3 (PoolSize 3)", got)
		}
	})
}

// TestLifecycleDialCoalescing parks seven callers behind one in-flight dial
// and requires exactly one dial plus seven coalesced joins, each holding a
// usable connection afterwards.
func TestLifecycleDialCoalescing(t *testing.T) {
	sc := vtime.NewSimClock()
	var dials atomic.Int32
	sc.Run(func() {
		vn := NewVirtualNet(sc, 13)
		sched := vtime.SchedOf(sc)
		gate := make(chan struct{})
		wrap := func(inner func(quorum.ServerID, string) (net.Conn, error)) func(quorum.ServerID, string) (net.Conn, error) {
			return func(to quorum.ServerID, addr string) (net.Conn, error) {
				dials.Add(1)
				unpark := sched.Park()
				<-gate
				unpark()
				sched.NoteRecv()
				return inner(to, addr)
			}
		}
		client, servers := lifecycleCluster(t, vn, sc, 1, LifecycleConfig{PoolSize: 1}, wrap)
		defer func() {
			client.Close()
			for _, s := range servers {
				s.Close()
			}
		}()
		ctx := context.Background()

		wg := vtime.NewWaitGroup(sc)
		wg.Add(8)
		for i := 0; i < 8; i++ {
			sched.Go(func() {
				defer wg.Done()
				if _, err := client.Call(ctx, 0, wire.ReadRequest{Key: "x"}); err != nil {
					t.Errorf("coalesced call: %v", err)
				}
			})
		}
		// The SimClock fires this timer only once every caller is parked:
		// one inside the gated dial, seven as singleflight waiters.
		sc.Sleep(time.Millisecond)
		if got := client.Stats().DialsCoalesced; got != 7 {
			t.Errorf("before gate open: %d coalesced, want 7", got)
		}
		sched.NoteSend()
		gate <- struct{}{}
		wg.Wait()

		// Regression: the dialer leases once per waiter before the hand-off
		// and the waiter must not lease again. A leaked lease per coalesced
		// caller would pin load() above zero forever, so the connection
		// would always count as busy for pool growth.
		st := client.states[0]
		st.mu.Lock()
		if len(st.conns) == 0 {
			t.Error("pool empty after coalesced calls completed")
		}
		for _, cn := range st.conns {
			if got := cn.load(); got != 0 {
				t.Errorf("pooled conn load = %d after all coalesced calls returned, want 0", got)
			}
		}
		st.mu.Unlock()
	})
	if got := dials.Load(); got != 1 {
		t.Fatalf("dialed %d times, want 1 (singleflight)", got)
	}
}

// TestLifecycleBackoffDeterminism runs a redial storm against two dead
// servers twice and requires, per server, the identical jittered backoff
// schedule: same dial-attempt timestamps, exponentially widening windows,
// each jittered into [d/2, d) and capped at 16×base. The jitter is hashed
// from the server id, so the two servers' schedules must differ: they do
// not redial in lockstep.
func TestLifecycleBackoffDeterminism(t *testing.T) {
	const (
		base = 10 * time.Millisecond
		poll = time.Millisecond
	)
	run := func() [2][]time.Duration {
		sc := vtime.NewSimClock()
		var stamps [2][]time.Duration
		sc.Run(func() {
			vn := NewVirtualNet(sc, 17)
			wrap := func(func(quorum.ServerID, string) (net.Conn, error)) func(quorum.ServerID, string) (net.Conn, error) {
				return func(to quorum.ServerID, _ string) (net.Conn, error) {
					stamps[to] = append(stamps[to], sc.Elapsed())
					return nil, errors.New("refused")
				}
			}
			client, servers := lifecycleCluster(t, vn, sc, 2, LifecycleConfig{DialBackoffBase: base}, wrap)
			defer func() {
				client.Close()
				for _, s := range servers {
					s.Close()
				}
			}()
			ctx := context.Background()
			for i := 0; i < 600; i++ {
				for id := range stamps {
					if _, err := client.Call(ctx, quorum.ServerID(id), wire.ReadRequest{Key: "x"}); err == nil {
						t.Fatal("call against a refusing dialer succeeded")
					}
				}
				sc.Sleep(poll)
			}
		})
		return stamps
	}
	a, b := run(), run()
	var gaps [2][]time.Duration
	for id := range a {
		if !slices.Equal(a[id], b[id]) {
			t.Fatalf("server %d: dial attempts at %v, then at %v: backoff schedule is not replaying", id, a[id], b[id])
		}
		if len(a[id]) < 4 {
			t.Fatalf("server %d: only %d dial attempts in 600ms; backoff windows too wide", id, len(a[id]))
		}
		// Consecutive failures widen the window exponentially up to the cap:
		// every gap lies in [base/2, 16×base + poll], and the run is long
		// enough for the capped window's [8×base, 16×base) to show.
		var widest time.Duration
		for i := 1; i < len(a[id]); i++ {
			gap := a[id][i] - a[id][i-1]
			if gap < base/2 || gap > 16*base+poll {
				t.Fatalf("server %d: gap %d = %v outside [base/2, 16×base+poll]", id, i, gap)
			}
			widest = max(widest, gap)
			gaps[id] = append(gaps[id], gap)
		}
		if widest < 8*base {
			t.Fatalf("server %d: widest gap %v; the 16×base cap was never reached", id, widest)
		}
	}
	n := min(len(gaps[0]), len(gaps[1]))
	if slices.Equal(gaps[0][:n], gaps[1][:n]) {
		t.Fatalf("servers 0 and 1 redial on the same schedule %v: jitter is not decorrelated across servers", gaps[0][:n])
	}
	t.Logf("replayed %d and %d dial attempts identically; gaps %v and %v", len(a[0]), len(a[1]), gaps[0], gaps[1])
}

// TestLifecycleBreakerStateMachine walks the breaker through its whole
// cycle: consecutive dial failures trip it, the open state fast-fails with
// ErrServerDown (and reports ServerDown), the cooldown half-opens it for one
// trial whose failure re-opens and whose success closes.
func TestLifecycleBreakerStateMachine(t *testing.T) {
	sc := vtime.NewSimClock()
	sc.Run(func() {
		vn := NewVirtualNet(sc, 23)
		var refuse atomic.Bool
		refuse.Store(true)
		wrap := func(inner func(quorum.ServerID, string) (net.Conn, error)) func(quorum.ServerID, string) (net.Conn, error) {
			return func(to quorum.ServerID, addr string) (net.Conn, error) {
				if refuse.Load() {
					return nil, errors.New("refused")
				}
				return inner(to, addr)
			}
		}
		client, servers := lifecycleCluster(t, vn, sc, 1, LifecycleConfig{
			BreakerThreshold: 3,
			BreakerCooldown:  50 * time.Millisecond,
		}, wrap)
		defer func() {
			client.Close()
			for _, s := range servers {
				s.Close()
			}
		}()
		ctx := context.Background()
		call := func() error { _, err := client.Call(ctx, 0, wire.ReadRequest{Key: "x"}); return err }

		// Three consecutive dial failures trip the breaker.
		for i := 0; i < 3; i++ {
			if client.ServerDown(0) {
				t.Fatalf("ServerDown before failure %d", i)
			}
			if err := call(); err == nil || errors.Is(err, ErrServerDown) {
				t.Fatalf("failure %d: got %v, want a dial error", i, err)
			}
		}
		if st := client.Stats(); st.BreakerTrips != 1 {
			t.Fatalf("BreakerTrips = %d, want 1", st.BreakerTrips)
		}
		if !client.ServerDown(0) {
			t.Fatal("breaker tripped but ServerDown is false")
		}
		if err := call(); !errors.Is(err, ErrServerDown) {
			t.Fatalf("open breaker returned %v, want ErrServerDown", err)
		}
		if !IsTransient(fmt.Errorf("wrapped: %w", ErrServerDown)) {
			t.Fatal("ErrServerDown must classify transient")
		}

		// Cooldown elapses: the half-open trial fails, re-opening it.
		sc.Sleep(60 * time.Millisecond)
		if client.ServerDown(0) {
			t.Fatal("ServerDown still true after the cooldown elapsed")
		}
		if err := call(); err == nil || errors.Is(err, ErrServerDown) {
			t.Fatalf("half-open trial: got %v, want a dial error", err)
		}
		if err := call(); !errors.Is(err, ErrServerDown) {
			t.Fatalf("after failed trial: got %v, want ErrServerDown", err)
		}
		if st := client.Stats(); st.BreakerHalfOpens != 1 || st.BreakerTrips != 2 {
			t.Fatalf("after failed trial: half-opens=%d trips=%d, want 1/2", st.BreakerHalfOpens, st.BreakerTrips)
		}

		// The server heals: the next trial closes the breaker for good.
		refuse.Store(false)
		sc.Sleep(60 * time.Millisecond)
		if err := call(); err != nil {
			t.Fatalf("healed trial: %v", err)
		}
		if st := client.Stats(); st.BreakerCloses != 1 {
			t.Fatalf("BreakerCloses = %d, want 1", st.BreakerCloses)
		}
		if client.ServerDown(0) {
			t.Fatal("ServerDown after the breaker closed")
		}
		if err := call(); err != nil {
			t.Fatalf("post-close call: %v", err)
		}
	})
}

// TestRPCErrorClassification covers the typed error path end to end over
// the virtual wire: a handler error comes back as an *RPCError with the
// legacy message text, classified permanent (upperHandler marks its
// malformed-request rejection via wire.PermanentError), while the breaker
// ignores it — the server answered, so it is alive.
func TestRPCErrorClassification(t *testing.T) {
	sc := vtime.NewSimClock()
	sc.Run(func() {
		vn := NewVirtualNet(sc, 31)
		client, servers := lifecycleCluster(t, vn, sc, 1, LifecycleConfig{BreakerThreshold: 2}, nil)
		defer func() {
			client.Close()
			for _, s := range servers {
				s.Close()
			}
		}()
		ctx := context.Background()
		for i := 0; i < 5; i++ {
			_, err := client.Call(ctx, 0, wire.WriteRequest{Key: "k"}) // upperHandler rejects non-reads
			if err == nil {
				t.Fatal("handler error did not surface")
			}
			var rpc *RPCError
			if !errors.As(err, &rpc) {
				t.Fatalf("got %T (%v), want *RPCError", err, err)
			}
			if rpc.Server != 0 || rpc.Msg == "" {
				t.Fatalf("RPCError = %+v", rpc)
			}
			if want := fmt.Sprintf("server %d: %s", rpc.Server, rpc.Msg); err.Error() != want {
				t.Fatalf("error text %q, want legacy form %q", err.Error(), want)
			}
			if !IsPermanent(err) {
				t.Fatalf("handler rejection %v not classified permanent", err)
			}
			if IsTransient(err) {
				t.Fatalf("permanent RPCError %v classified transient", err)
			}
		}
		// Five server-answered errors, threshold two: the breaker must not
		// have counted them.
		if st := client.Stats(); st.BreakerTrips != 0 {
			t.Fatalf("breaker tripped on server-answered RPC errors: %d", st.BreakerTrips)
		}
		if client.ServerDown(0) {
			t.Fatal("ServerDown after RPC errors only")
		}
	})
}

// TestRPCErrorUnclassifiedStaysRetryable pins the classification default: a
// handler error the server cannot positively identify travels as
// ErrKindUnknown, which clients treat as retryable — misfiling a transient
// app-level error (overload, shutdown) as permanent would stop a quorum
// re-sample that could succeed.
func TestRPCErrorUnclassifiedStaysRetryable(t *testing.T) {
	sc := vtime.NewSimClock()
	sc.Run(func() {
		vn := NewVirtualNet(sc, 37)
		l, err := vn.Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		h := HandlerFunc(func(context.Context, any) (any, error) {
			return nil, errors.New("briefly overloaded, try again")
		})
		srv := ServeListener(l, h, TCPOptions{Clock: sc})
		client := NewTCPClientOpts(map[quorum.ServerID]string{0: l.Addr().String()}, TCPClientOptions{
			Clock:     sc,
			Dial:      vn.Dialer(ClientSource),
			Lifecycle: LifecycleConfig{BreakerThreshold: 2},
		})
		defer func() {
			client.Close()
			srv.Close()
		}()
		for i := 0; i < 3; i++ {
			_, err := client.Call(context.Background(), 0, wire.ReadRequest{Key: "k"})
			var rpc *RPCError
			if !errors.As(err, &rpc) {
				t.Fatalf("got %T (%v), want *RPCError", err, err)
			}
			if rpc.Kind != wire.ErrKindUnknown {
				t.Fatalf("Kind = %d, want ErrKindUnknown", rpc.Kind)
			}
			if IsPermanent(err) {
				t.Fatalf("unclassified error %v classified permanent", err)
			}
		}
		if st := client.Stats(); st.BreakerTrips != 0 {
			t.Fatalf("breaker counted server-answered errors: %d trips", st.BreakerTrips)
		}
	})
}

// foreignPayload is a type the closed binary codec does not carry.
type foreignPayload struct{ X int }

// TestUnencodableRequestKeepsConnection: a request the codec cannot encode
// never reaches the socket, so it must fail permanently on its own — not
// evict the multiplexed connection under a call already in flight on it, and
// not count against the breaker (threshold 1: one counted failure would mark
// the server down).
func TestUnencodableRequestKeepsConnection(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	h := HandlerFunc(func(_ context.Context, req any) (any, error) {
		if r, ok := req.(wire.ReadRequest); ok && r.Key == "slow" {
			close(started)
			<-release
		}
		return req, nil
	})
	srv, err := ListenTCPCodec("127.0.0.1:0", h, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewTCPClientOpts(map[quorum.ServerID]string{0: srv.Addr()}, TCPClientOptions{
		Lifecycle: LifecycleConfig{BreakerThreshold: 1, BreakerCooldown: time.Hour},
	})
	defer client.Close()

	inFlight := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), 0, wire.ReadRequest{Key: "slow"})
		inFlight <- err
	}()
	<-started

	_, err = client.Call(context.Background(), 0, foreignPayload{1})
	if !IsPermanent(err) || IsTransient(err) {
		t.Errorf("unencodable request failed with %v, want a permanent, non-transient error", err)
	}
	if client.ServerDown(0) {
		t.Error("a local encode failure opened the server's breaker")
	}
	close(release)
	if err := <-inFlight; err != nil {
		t.Errorf("the call in flight on the same connection failed: %v", err)
	}
	if _, err := client.Call(context.Background(), 0, wire.PingRequest{}); err != nil {
		t.Errorf("call after the encode failure: %v", err)
	}
	if st := client.Stats(); st.Conns != 1 || st.BreakerTrips != 0 {
		t.Errorf("conns = %d, breaker trips = %d; want the one original connection and no trip", st.Conns, st.BreakerTrips)
	}
}

// TestUnencodableReplyIsPermanentRPCError is the server-side twin: a handler
// reply the codec cannot encode comes back promptly as a permanent *RPCError,
// and the connection serves the next call.
func TestUnencodableReplyIsPermanentRPCError(t *testing.T) {
	h := HandlerFunc(func(_ context.Context, req any) (any, error) {
		if _, ok := req.(wire.ReadRequest); ok {
			return foreignPayload{1}, nil
		}
		return req, nil
	})
	for _, codec := range []Codec{CodecBinary, CodecBinaryFlate} {
		srv, err := ListenTCPCodec("127.0.0.1:0", h, codec)
		if err != nil {
			t.Fatal(err)
		}
		client := NewTCPClientOpts(map[quorum.ServerID]string{0: srv.Addr()}, TCPClientOptions{Codec: codec})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err = client.Call(ctx, 0, wire.ReadRequest{Key: "k"})
		var rpc *RPCError
		if !errors.As(err, &rpc) || !IsPermanent(err) {
			t.Errorf("%v: unencodable reply surfaced as %v, want a permanent *RPCError", codec, err)
		}
		if _, err := client.Call(ctx, 0, wire.PingRequest{}); err != nil {
			t.Errorf("%v: call after the unencodable reply: %v", codec, err)
		}
		if st := client.Stats(); st.Conns != 1 {
			t.Errorf("%v: %d connections dialed, want 1", codec, st.Conns)
		}
		cancel()
		client.Close()
		srv.Close()
	}
}
