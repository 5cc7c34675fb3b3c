package transport

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
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

// sinkFunc adapts a function to Sink.
type sinkFunc func(tag int, resp any, err error)

func (f sinkFunc) Complete(tag int, resp any, err error) { f(tag, resp, err) }

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
	if _, err, pending := n.Start(context.Background(), 1, "x", nil, 0); pending || err != nil {
		t.Fatalf("rejoined server: pending %v, err %v", pending, err)
	}
	if got := seqOf(n, 1); got != 4 {
		t.Errorf("callSeq %d after rejoin, want 4", got)
	}
}

// healthOnly is a Call-capable stub that reports server 12 down.
type healthOnly struct{ Transport }

func (healthOnly) ServerDown(id quorum.ServerID) bool { return id == 12 }

// TestOffsetForwardsCapabilities: the shifted view translates ids into the
// transport's for Call, Start and ServerDown. Over a Starter it forwards
// Start with the tag untouched, completing inline what the transport
// completes inline; over a Call-only transport it is Call-only, and
// StarterOf runs its calls on workers. ServerDown reports the server up when
// the transport reports no health.
func TestOffsetForwardsCapabilities(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(12, acceptingEcho())
	n.Register(13, acceptingEcho())
	n.SetServerLatency(13, time.Nanosecond, time.Nanosecond) // pending on MemNetwork
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		tr      Transport
		starter bool // the view has Start of its own
		health  bool
		inline  bool // Start(2) completes inline; Start(3) is pending either way
	}{
		{"inner Starter", n, true, false, true},
		{"Call-only inner", struct{ Transport }{n}, false, false, false},
		{"health", healthOnly{n}, false, true, false},
	} {
		o := Offset(c.tr, 10)
		if resp, err := o.Call(ctx, 2, "x"); err != nil || resp != "x" {
			t.Errorf("%s: Call(2) = %v, %v", c.name, resp, err)
		}
		if _, ok := o.(Starter); ok != c.starter {
			t.Errorf("%s: view is a Starter: %v, want %v", c.name, ok, c.starter)
		}
		st := StarterOf(o, vtime.SchedOf(nil))
		got := make(chan string, 1)
		sink := sinkFunc(func(tag int, resp any, err error) { got <- fmt.Sprintf("%d %v %v", tag, resp, err) })
		for _, to := range []quorum.ServerID{2, 3} {
			resp, err, pending := st.Start(ctx, to, "x", sink, 7)
			if want := c.inline && to == 2; pending == want {
				t.Errorf("%s: Start(%d) pending %v, want %v", c.name, to, pending, !want)
			}
			out := fmt.Sprintf("%d %v %v", 7, resp, err)
			if pending {
				out = <-got
			}
			if out != "7 x <nil>" {
				t.Errorf("%s: Start(%d) completed with tag, reply, error %s", c.name, to, out)
			}
		}
		if c.starter {
			if _, err, pending := st.Start(ctx, 4, "x", nil, 0); pending || !errors.Is(err, ErrUnknownServer) {
				t.Errorf("%s: Start(4) = %v, %v; want unknown server 14, inline", c.name, pending, err)
			}
		}
		if down := o.(HealthReporter); down.ServerDown(2) != c.health || down.ServerDown(12) {
			t.Errorf("%s: ServerDown not translated to local ids", c.name)
		}
	}
}
