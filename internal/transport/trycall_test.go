package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/quorum"
)

// tryEcho echoes its request, on the caller's goroutine when accept is set,
// and counts how often it ran.
type tryEcho struct {
	accept  atomic.Bool
	handled atomic.Int64
}

func (h *tryEcho) Handle(_ context.Context, req any) (any, error) {
	h.handled.Add(1)
	return req, nil
}

func (h *tryEcho) TryHandle(_ context.Context, req any) (any, bool, error) {
	if !h.accept.Load() {
		return nil, false, nil
	}
	h.handled.Add(1)
	return req, true, nil
}

func acceptingEcho() *tryEcho {
	h := new(tryEcho)
	h.accept.Store(true)
	return h
}

func seqOf(n *MemNetwork, id quorum.ServerID) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.servers[id].callSeq.Load()
}

// tryThenCall is what a fanning-out caller does: offer the call, and make
// it the ordinary way if it was declined.
func tryThenCall(n *MemNetwork, to quorum.ServerID, req any) (resp any, inline bool, err error) {
	ctx := context.Background()
	if resp, ok, err := n.TryCall(ctx, to, req); ok {
		return resp, true, err
	}
	resp, err = n.Call(ctx, to, req)
	return resp, false, err
}

// TestTryCallCompletesWhatCannotPark: on a link with nothing to wait for, to
// a handler that accepts, TryCall is Call — the reply, and every error Call
// would have produced before reaching the handler.
func TestTryCallCompletesWhatCannotPark(t *testing.T) {
	n := NewMemNetwork(1)
	h := acceptingEcho()
	n.Register(1, h)
	n.Register(2, h)
	n.Register(3, h)
	n.Crash(2)
	n.SetPartition(map[quorum.ServerID]int{3: 1})

	if resp, inline, err := tryThenCall(n, 1, "x"); !inline || err != nil || resp != "x" {
		t.Fatalf("live server: resp %v, inline %v, err %v", resp, inline, err)
	}
	for _, c := range []struct {
		to   quorum.ServerID
		want error
	}{{2, ErrCrashed}, {3, ErrPartitioned}, {9, ErrUnknownServer}} {
		_, ok, err := n.TryCall(context.Background(), c.to, "x")
		if !ok || !errors.Is(err, c.want) {
			t.Errorf("server %d: ok %v, err %v; want completed with %v", c.to, ok, err, c.want)
		}
	}
	if got := h.handled.Load(); got != 1 {
		t.Errorf("handler ran %d times, want 1", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok, err := n.TryCall(ctx, 1, "x"); !ok || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: ok %v, err %v; want completed with context.Canceled", ok, err)
	}
}

// TestTryCallDropVerdictIsCalls: with a drop probability set, a stream of
// TryCalls loses exactly the calls a stream of Calls on a same-seed network
// loses, and numbers them the same.
func TestTryCallDropVerdictIsCalls(t *testing.T) {
	const calls = 400
	viaCall, viaTry := NewMemNetwork(7), NewMemNetwork(7)
	for _, n := range []*MemNetwork{viaCall, viaTry} {
		n.Register(1, acceptingEcho())
		n.SetDropProb(0.3)
	}
	dropped := 0
	for i := 0; i < calls; i++ {
		_, errCall := viaCall.Call(context.Background(), 1, i)
		_, ok, errTry := viaTry.TryCall(context.Background(), 1, i)
		if !ok {
			t.Fatalf("call %d declined on a link with nothing to wait for", i)
		}
		if errors.Is(errCall, ErrDropped) != errors.Is(errTry, ErrDropped) {
			t.Fatalf("call %d: Call err %v, TryCall err %v", i, errCall, errTry)
		}
		if errCall != nil {
			dropped++
		}
	}
	if dropped == 0 || dropped == calls {
		t.Fatalf("%d of %d calls dropped: the test exercised nothing", dropped, calls)
	}
	if a, b := seqOf(viaCall, 1), seqOf(viaTry, 1); a != calls || b != calls {
		t.Errorf("callSeq %d via Call, %d via TryCall, want %d each", a, b, calls)
	}
}

// TestTryCallDeclinesWithoutSideEffects: whatever makes TryCall decline, the
// Call that follows is indistinguishable from a Call made instead — the
// hook sees the call once, the sequence counter advances once, and no
// concurrency slot is ever held by a call that declined.
func TestTryCallDeclinesWithoutSideEffects(t *testing.T) {
	t.Run("link hook", func(t *testing.T) {
		n := NewMemNetwork(1)
		h := acceptingEcho()
		n.Register(1, h)
		n.SetDropProb(1e-9) // numbers every call
		hook := &recordingHook{}
		n.SetLinkHook(hook)
		for i := 1; i <= 5; i++ {
			if _, inline, err := tryThenCall(n, 1, "x"); inline || err != nil {
				t.Fatalf("call %d: inline %v, err %v; a hooked link must decline", i, inline, err)
			}
			if got := hook.calls.Load(); got != int64(i) {
				t.Fatalf("hook consulted %d times after %d calls", got, i)
			}
			if got := seqOf(n, 1); got != uint64(i) {
				t.Fatalf("callSeq %d after %d calls", got, i)
			}
		}
		if got := h.handled.Load(); got != 5 {
			t.Errorf("handler ran %d times for 5 calls", got)
		}
	})

	t.Run("concurrency slot", func(t *testing.T) {
		n := NewMemNetwork(1)
		n.Register(1, acceptingEcho())
		n.SetServerConcurrency(1)
		n.mu.Lock()
		sem := n.servers[1].sem
		n.mu.Unlock()
		for i := 0; i < 3; i++ {
			if _, ok, _ := n.TryCall(context.Background(), 1, "x"); ok {
				t.Fatal("a capped server must decline: its slot may have to be waited for")
			}
			if len(sem) != 0 {
				t.Fatal("a declined call holds the server's only slot")
			}
		}
		if _, err := n.Call(context.Background(), 1, "x"); err != nil {
			t.Fatalf("Call after declined TryCalls: %v", err)
		}
		n.SetServerConcurrency(0)
		if _, ok, _ := n.TryCall(context.Background(), 1, "x"); !ok {
			t.Error("cap removed, still declining")
		}
	})

	t.Run("latency", func(t *testing.T) {
		n := NewMemNetwork(1)
		n.Register(1, acceptingEcho())
		n.Register(2, acceptingEcho())
		n.SetServerLatency(2, time.Microsecond, time.Microsecond)
		if _, ok, _ := n.TryCall(context.Background(), 1, "x"); !ok {
			t.Error("an override on server 2 made server 1 decline")
		}
		if _, ok, _ := n.TryCall(context.Background(), 2, "x"); ok {
			t.Error("server 2 has latency and did not decline")
		}
		n.SetServerLatency(2, 0, 0)
		n.SetLatency(time.Microsecond, 2*time.Microsecond)
		for id := quorum.ServerID(1); id <= 2; id++ {
			if _, ok, _ := n.TryCall(context.Background(), id, "x"); ok {
				t.Errorf("server %d did not decline under global latency", id)
			}
		}
		if a, b := seqOf(n, 1), seqOf(n, 2); a != 0 || b != 0 {
			t.Errorf("declined calls drew latency: callSeq %d, %d", a, b)
		}
	})

	t.Run("handler", func(t *testing.T) {
		n := NewMemNetwork(3)
		waits := new(tryEcho) // declines
		n.Register(1, waits)
		n.Register(2, plainEcho()) // no TryHandler at all
		n.SetDropProb(1e-9)
		for i := 1; i <= 4; i++ {
			for id := quorum.ServerID(1); id <= 2; id++ {
				if _, inline, err := tryThenCall(n, id, "x"); inline || err != nil {
					t.Fatalf("server %d call %d: inline %v, err %v", id, i, inline, err)
				}
				if got := seqOf(n, id); got != uint64(i) {
					t.Fatalf("server %d: callSeq %d after %d calls", id, got, i)
				}
			}
		}
		if got := waits.handled.Load(); got != 4 {
			t.Errorf("declining handler ran %d times for 4 calls", got)
		}
	})
}

// TestDeregisterForgetsAllButCallSeq: the per-server record keeps only its
// sequence counter across a leave, so a rejoin is a fresh member that does
// not replay the departed server's fault pattern.
func TestDeregisterForgetsAllButCallSeq(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(1, acceptingEcho())
	n.SetDropProb(1e-9)
	n.SetServerLatency(1, time.Hour, time.Hour)
	n.SetPartition(map[quorum.ServerID]int{1: 1})
	n.SetServerConcurrency(1)
	n.Crash(1)
	n.SetServerLatency(1, 0, 0)
	n.ClearPartition()
	n.Recover(1)
	for i := 0; i < 3; i++ {
		if _, err := n.Call(context.Background(), 1, "x"); err != nil {
			t.Fatal(err)
		}
	}
	n.SetServerLatency(1, time.Hour, time.Hour)
	n.SetPartition(map[quorum.ServerID]int{1: 1})
	n.Crash(1)
	if got := n.CrashedCount(); got != 1 {
		t.Fatalf("CrashedCount %d, want 1", got)
	}

	n.Deregister(1)
	if got := n.CrashedCount(); got != 0 {
		t.Errorf("CrashedCount %d after the crashed server left", got)
	}
	if _, err := n.Call(context.Background(), 1, "x"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("departed server: %v", err)
	}
	n.Register(1, acceptingEcho())
	// Not crashed, not partitioned, no latency, no cap: the call runs on
	// the caller — and is numbered after the departed server's three.
	if _, ok, err := n.TryCall(context.Background(), 1, "x"); !ok || err != nil {
		t.Fatalf("rejoined server: ok %v, err %v", ok, err)
	}
	if got := seqOf(n, 1); got != 4 {
		t.Errorf("callSeq %d after rejoin, want 4", got)
	}
}

// healthOnly is a Call-capable stub that reports server 12 down.
type healthOnly struct{ Transport }

func (healthOnly) ServerDown(id quorum.ServerID) bool { return id == 12 }

// TestOffsetForwardsCapabilities: the shifted view always offers TryCall,
// Start and ServerDown; each translates ids into the transport's when the
// transport has the capability, and declines (or reports the server up)
// when it does not, without touching the transport.
func TestOffsetForwardsCapabilities(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(12, acceptingEcho())
	n.Register(13, acceptingEcho())
	n.SetServerLatency(13, time.Nanosecond, time.Nanosecond) // only Start takes it
	ctx := context.Background()
	for _, c := range []struct {
		name               string
		tr                 Transport
		try, start, health bool
	}{
		{"MemNetwork", n, true, true, false},
		{"Call only", struct{ Transport }{n}, false, false, false},
		{"health", healthOnly{n}, false, false, true},
	} {
		o := Offset(c.tr, 10)
		if resp, err := o.Call(ctx, 2, "x"); err != nil || resp != "x" {
			t.Errorf("%s: Call(2) = %v, %v", c.name, resp, err)
		}
		if resp, ok, err := o.(TryCaller).TryCall(ctx, 2, "x"); ok != c.try || (ok && (err != nil || resp != "x")) {
			t.Errorf("%s: TryCall(2) = %v, %v, %v; want taken %v", c.name, resp, ok, err, c.try)
		}
		if c.try {
			if _, ok, err := o.(TryCaller).TryCall(ctx, 4, "x"); !ok || !errors.Is(err, ErrUnknownServer) {
				t.Errorf("%s: TryCall(4) = %v, %v; want unknown server 14", c.name, ok, err)
			}
		}
		got := make(chan any, 1)
		ok := o.(Starter).Start(ctx, 3, "x", func(resp any, err error) { got <- resp })
		if ok != c.start {
			t.Errorf("%s: Start(3) taken %v, want %v", c.name, ok, c.start)
		} else if ok {
			if resp := <-got; resp != "x" {
				t.Errorf("%s: Start(3) completed with %v", c.name, resp)
			}
		}
		if down := o.(HealthReporter); down.ServerDown(2) != c.health || down.ServerDown(12) {
			t.Errorf("%s: ServerDown not translated to local ids", c.name)
		}
	}
}
