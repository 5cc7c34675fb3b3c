package register

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/ts"
)

// uniformSystem builds the R(n, q) probabilistic system used by the
// straggler tests (Uniform implements quorum.SpareSampler).
func uniformSystem(t *testing.T, n, q int) *quorum.Uniform {
	t.Helper()
	u, err := quorum.NewUniform(n, q)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func hedgedClient(t *testing.T, c *cluster, sys quorum.System, opts Options) *Client {
	t.Helper()
	opts.System = sys
	if opts.Transport == nil {
		opts.Transport = c.net
	}
	if opts.Rand == nil {
		opts.Rand = rand.New(rand.NewSource(99))
	}
	if opts.Clock == nil {
		opts.Clock = ts.NewClock(1)
	}
	if opts.Mode == 0 {
		opts.Mode = Benign
	}
	cl, err := NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// settleGoroutines waits for the goroutine count to return to the given
// baseline, failing the test if it does not within the deadline — the
// leak-check half of the background-drain contract.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEagerReadSkipsStraggler is the tail-latency regression test: under
// global latency skew, with one crashed member and two heavy stragglers, an
// early-threshold read with hedged spares must complete without waiting for
// the stragglers, and the background drain must not leak goroutines.
func TestEagerReadSkipsStraggler(t *testing.T) {
	const (
		n, q          = 9, 5
		stragglerWait = 300 * time.Millisecond
	)
	c := newCluster(t, n)
	sys := uniformSystem(t, n, q)
	cl := hedgedClient(t, c, sys, Options{
		Tuning: config.Tuning{Spares: 4, HedgeDelay: 2 * time.Millisecond, EagerRead: true},
	})
	ctx := context.Background()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, k := range keys {
		if _, err := cl.Write(ctx, k, []byte("val-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	baseline := runtime.NumGoroutine()
	c.net.SetLatency(50*time.Microsecond, 2*time.Millisecond) // skew
	c.net.Crash(0)
	c.net.SetServerLatency(1, stragglerWait, stragglerWait)
	c.net.SetServerLatency(2, stragglerWait, stragglerWait)

	sawStraggler := false
	for _, k := range keys {
		start := time.Now()
		rr, err := cl.Read(ctx, k)
		took := time.Since(start)
		if err != nil {
			t.Fatalf("read %q: %v", k, err)
		}
		if !rr.Found || string(rr.Value) != "val-"+k {
			t.Fatalf("read %q returned %+v", k, rr)
		}
		if took >= stragglerWait/2 {
			t.Fatalf("read %q took %v: waited for a straggler", k, took)
		}
		if quorum.Contains(rr.Quorum, 1) || quorum.Contains(rr.Quorum, 2) {
			sawStraggler = true
			if !rr.Early {
				t.Errorf("read %q sampled a straggler but did not return early: %+v", k, rr)
			}
		}
	}
	if !sawStraggler {
		t.Fatal("no sampled quorum contained a straggler; test exercised nothing")
	}
	st := cl.Stats()
	if st.EarlyCompletions == 0 {
		t.Error("no early completions recorded")
	}
	if st.SparesPromoted == 0 {
		t.Error("no spares promoted despite crash + stragglers")
	}

	// The stragglers' replies are still in flight; the drain must consume
	// them and every goroutine must retire once they resolve.
	cl.WaitDrained()
	settleGoroutines(t, baseline)
	if cl.Stats().LateReplies == 0 {
		t.Error("drain recorded no late replies")
	}
}

// TestEagerReadMasking checks the masking completion rule end to end: with
// every replica correct and one straggler, the read returns as soon as no
// rival candidate can reach the K threshold, skipping the straggler.
func TestEagerReadMasking(t *testing.T) {
	const n = 7
	c := newCluster(t, n)
	sys := uniformSystem(t, n, n) // access set = whole universe
	cl := hedgedClient(t, c, sys, Options{Mode: Masking, K: 2, Tuning: config.Tuning{EagerRead: true}})
	ctx := context.Background()
	if _, err := cl.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	const stragglerWait = 250 * time.Millisecond
	c.net.SetServerLatency(6, stragglerWait, stragglerWait)
	start := time.Now()
	rr, err := cl.Read(ctx, "x")
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Found || string(rr.Value) != "v" {
		t.Fatalf("read returned %+v", rr)
	}
	if !rr.Early {
		t.Error("masking read did not return early")
	}
	if took >= stragglerWait/2 {
		t.Fatalf("masking read took %v: waited for the straggler", took)
	}
	if rr.Vouchers < 2 {
		t.Fatalf("accepted with %d vouchers, want >= K=2", rr.Vouchers)
	}
	cl.WaitDrained()
}

// TestEagerWriteThreshold checks the W knob: a write completes at W acks
// without waiting for a straggler, and the drain still delivers the write
// to the straggler afterwards.
func TestEagerWriteThreshold(t *testing.T) {
	const n = 5
	c := newCluster(t, n)
	sys := uniformSystem(t, n, n)
	cl := hedgedClient(t, c, sys, Options{Tuning: config.Tuning{W: 3}})
	ctx := context.Background()
	const stragglerWait = 250 * time.Millisecond
	c.net.SetServerLatency(4, stragglerWait, stragglerWait)
	start := time.Now()
	wr, err := cl.Write(ctx, "x", []byte("v"))
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.Acked) < 3 {
		t.Fatalf("acked %d, want >= 3", len(wr.Acked))
	}
	if !wr.Early {
		t.Error("write did not return early")
	}
	if took >= stragglerWait/2 {
		t.Fatalf("write took %v: waited for the straggler", took)
	}
	cl.WaitDrained()
	// The straggler's write was still delivered by the in-flight call.
	if e, ok := c.reps[4].Store().Get("x"); !ok || string(e.Value) != "v" {
		t.Errorf("straggler store after drain: %+v ok=%v", e, ok)
	}
}

// countingSystem wraps a SpareSampler and counts strategy invocations, so
// tests can distinguish spare promotion (same sample) from a full re-sample
// (a new attempt).
type countingSystem struct {
	quorum.SpareSampler
	samples int
}

func (cs *countingSystem) Pick(r *rand.Rand) []quorum.ServerID {
	cs.samples++
	return cs.SpareSampler.Pick(r)
}

func (cs *countingSystem) PickWithSpares(r *rand.Rand, spares int) ([]quorum.ServerID, []quorum.ServerID) {
	cs.samples++
	return cs.SpareSampler.PickWithSpares(r, spares)
}

// TestHedgePromotesSparesBeforeResample: with crashed members in every
// possible quorum, a single attempt must succeed by promoting spares — no
// second quorum sample.
func TestHedgePromotesSparesBeforeResample(t *testing.T) {
	const n, q = 9, 5
	c := newCluster(t, n)
	cs := &countingSystem{SpareSampler: uniformSystem(t, n, q)}
	cl := hedgedClient(t, c, cs, Options{Tuning: config.Tuning{Spares: 4}})
	rc, err := NewRetryingClient(cl, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	cs.samples = 0
	// Crash 5 servers: every 5-subset contains at least one crashed member.
	for id := 0; id < 5; id++ {
		c.net.Crash(quorum.ServerID(id))
	}
	rr, err := rc.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if cs.samples != 1 {
		t.Errorf("%d quorum samples, want 1 (spares should absorb the failures)", cs.samples)
	}
	if rr.Promoted == 0 {
		t.Error("no spares promoted despite guaranteed crashed members")
	}
	if rr.Replies == 0 {
		t.Error("no replies collected")
	}
}

// TestRetryFallsThroughOnDeadQuorum: when the whole universe is dead, spares
// cannot help; every attempt must fall through to ErrNoReplies and the
// retrying client must consume all its attempts.
func TestRetryFallsThroughOnDeadQuorum(t *testing.T) {
	const n, q = 6, 3
	c := newCluster(t, n)
	cs := &countingSystem{SpareSampler: uniformSystem(t, n, q)}
	cl := hedgedClient(t, c, cs, Options{Tuning: config.Tuning{Spares: 2}})
	rc, err := NewRetryingClient(cl, 3)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		c.net.Crash(quorum.ServerID(id))
	}
	_, err = rc.Read(context.Background(), "x")
	if !errors.Is(err, ErrNoReplies) {
		t.Fatalf("err = %v, want ErrNoReplies", err)
	}
	if cs.samples != 3 {
		t.Errorf("%d quorum samples, want 3 (one per attempt)", cs.samples)
	}
}

// TestRetryBailsOutBeforeAttemptOnCancelledContext: a cancelled context must
// be detected before a quorum is sampled and dispatched, not after.
func TestRetryBailsOutBeforeAttemptOnCancelledContext(t *testing.T) {
	const n, q = 6, 3
	c := newCluster(t, n)
	cs := &countingSystem{SpareSampler: uniformSystem(t, n, q)}
	cl := hedgedClient(t, c, cs, Options{})
	rc, err := NewRetryingClient(cl, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rc.Read(ctx, "x"); !errors.Is(err, context.Canceled) {
		t.Errorf("Read err = %v, want context.Canceled", err)
	}
	if _, err := rc.Write(ctx, "x", []byte("v")); !errors.Is(err, context.Canceled) {
		t.Errorf("Write err = %v, want context.Canceled", err)
	}
	if cs.samples != 0 {
		t.Errorf("%d quorum samples dispatched on a dead context, want 0", cs.samples)
	}
}

// TestLateReadRepair: a straggler holding a stale value is repaired from the
// background drain after an eager read returned without it.
func TestLateReadRepair(t *testing.T) {
	const n, q = 9, 8
	const straggler = quorum.ServerID(8)
	c := newCluster(t, n)
	sys := uniformSystem(t, n, q)
	cl := hedgedClient(t, c, sys, Options{
		Tuning: config.Tuning{
			Spares:     1,
			HedgeDelay: 2 * time.Millisecond,
			EagerRead:  true,
			ReadRepair: true,
		},
	})
	ctx := context.Background()
	if _, err := cl.Write(ctx, "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// The straggler misses the second write...
	c.net.Crash(straggler)
	if _, err := cl.Write(ctx, "x", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// ...then recovers, slow.
	c.net.Recover(straggler)
	const stragglerWait = 200 * time.Millisecond
	c.net.SetServerLatency(straggler, stragglerWait, stragglerWait)

	exercised := false
	for i := 0; i < 30 && !exercised; i++ {
		start := time.Now()
		rr, err := cl.Read(ctx, "x")
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Found || string(rr.Value) != "v2" {
			t.Fatalf("read returned %+v", rr)
		}
		if quorum.Contains(rr.Quorum, straggler) && rr.Early {
			exercised = true
			if took >= stragglerWait/2 {
				t.Fatalf("read took %v: waited for the straggler", took)
			}
		}
		cl.WaitDrained()
	}
	if !exercised {
		t.Fatal("no read sampled the straggler and returned early")
	}
	if cl.Stats().LateRepairs == 0 {
		t.Error("no late repairs recorded")
	}
	if e, ok := c.reps[straggler].Store().Get("x"); !ok || string(e.Value) != "v2" {
		t.Errorf("straggler store after late repair: %+v ok=%v", e, ok)
	}
}

// TestMaskDecided unit-tests the masking decidability rule.
func TestMaskDecided(t *testing.T) {
	s := func(c uint64) ts.Stamp { return ts.Stamp{Counter: c, Writer: 1} }
	cases := []struct {
		name   string
		votes  map[voteKey]int
		k, out int
		want   bool
	}{
		{"no candidates", map[voteKey]int{}, 2, 1, false},
		{"unseen rival possible", map[voteKey]int{{s(1), "a"}: 5}, 2, 2, false},
		{"threshold met, no rivals", map[voteKey]int{{s(1), "a"}: 3}, 2, 1, true},
		{"under threshold", map[voteKey]int{{s(1), "a"}: 1}, 2, 1, false},
		{"higher-stamp rival can reach k", map[voteKey]int{{s(1), "a"}: 3, {s(2), "b"}: 1}, 2, 1, false},
		{"higher-stamp rival cannot reach k", map[voteKey]int{{s(1), "a"}: 3, {s(2), "b"}: 0}, 2, 1, true},
		{"lower-stamp rival irrelevant", map[voteKey]int{{s(5), "a"}: 3, {s(1), "b"}: 1}, 2, 1, true},
		{"zero k never decides", map[voteKey]int{{s(1), "a"}: 3}, 0, 0, false},
	}
	for _, tc := range cases {
		if got := maskDecided(tc.votes, tc.k, tc.out); got != tc.want {
			t.Errorf("%s: maskDecided = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSpareRequiresSampler: asking for spares from a system without spare
// support must fail loudly at construction, not silently degrade.
func TestSpareRequiresSampler(t *testing.T) {
	c := newCluster(t, 3)
	u, err := quorum.NewUniform(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewClient(Options{
		System:    struct{ quorum.System }{u}, // hides PickWithSpares
		Mode:      Benign,
		Transport: c.net,
		Rand:      rand.New(rand.NewSource(1)),
		Tuning:    config.Tuning{Spares: 2},
	})
	if err == nil {
		t.Fatal("Spares accepted for a system without SpareSampler")
	}
}

// TestDrainSkipsAStrayHedgeFire: under the wall clock a hedge alarm's fire
// can race the gather's Stop and land among the leftover replies. The drain
// takes it without counting it as a reply: it consumes exactly the
// leftovers (one queued on the caller, three on the channel), counts only
// the successful ones as late, and finishes.
func TestDrainSkipsAStrayHedgeFire(t *testing.T) {
	c := newCluster(t, 5)
	cl, err := newCell(Options{
		System:    uniformSystem(t, 5, 3),
		Mode:      Benign,
		Transport: c.net,
		Rand:      rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := gatherOutcome{leftover: 4}
	out.replies.total = 6
	out.replies.local = []callReply{{id: 0}}
	ch := out.replies.channel(cl.sched)
	for _, r := range []callReply{{id: 1}, {hedge: true}, {id: 2, err: errors.New("down")}, {id: 3}, {id: 4}} {
		ch.Send(r)
	}
	var seen []quorum.ServerID
	cl.drain(out, func(r callReply) { seen = append(seen, r.id) })
	cl.WaitDrained()
	if got := fmt.Sprint(seen); got != "[0 1 2 3]" {
		t.Errorf("drain saw %s, want [0 1 2 3]", got)
	}
	if got := cl.Stats().LateReplies; got != 3 {
		t.Errorf("LateReplies = %d, want 3 (the failed reply and the hedge fire do not count)", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if r, err := ch.RecvCtx(ctx); err != nil || r.id != 4 {
		t.Errorf("after the drain the channel gave %+v, %v; want the reply from 4, not a leftover's", r, err)
	}
}
