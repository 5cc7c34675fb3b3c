package register

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

func TestRetryingClientValidation(t *testing.T) {
	c := newCluster(t, 3)
	cl := benignClient(t, c, majoritySystem(t, 3), 1)
	if _, err := NewRetryingClient(nil, 3); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := NewRetryingClient(cl, 0); err == nil {
		t.Error("zero attempts accepted")
	}
}

func TestRetryingWriteSurvivesLossyNetwork(t *testing.T) {
	c := newCluster(t, 9)
	sys := majoritySystem(t, 9)
	base, err := NewClient(Options{
		System: sys, Mode: Benign, Transport: c.net,
		Rand:  rand.New(rand.NewSource(1)),
		Clock: ts.NewClock(1), RequireFullWrite: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRetryingClient(base, 50)
	if err != nil {
		t.Fatal(err)
	}
	// 30% message loss: single attempts of 5-member full-quorum writes
	// succeed with probability 0.7^5 ≈ 17%, but 50 attempts virtually
	// always find a fully-acknowledging quorum.
	c.net.SetDropProb(0.3)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := rc.Write(ctx, "x", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("write %d failed despite retries: %v", i, err)
		}
	}
	c.net.SetDropProb(0)
	rr, err := rc.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(rr.Value) != "v19" {
		t.Errorf("read %+v", rr)
	}
}

func TestRetryingReadGivesUpEventually(t *testing.T) {
	c := newCluster(t, 4)
	for i := 0; i < 4; i++ {
		c.net.Crash(quorum.ServerID(i))
	}
	base := benignClient(t, c, majoritySystem(t, 4), 1)
	rc, err := NewRetryingClient(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Read(context.Background(), "x"); !errors.Is(err, ErrNoReplies) {
		t.Errorf("err = %v, want ErrNoReplies", err)
	}
	if _, err := rc.Write(context.Background(), "x", []byte("v")); !errors.Is(err, ErrNoReplies) {
		t.Errorf("write err = %v, want ErrNoReplies", err)
	}
}

func TestRetryingDoesNotMaskRealErrors(t *testing.T) {
	c := newCluster(t, 3)
	base, err := NewClient(Options{
		System: majoritySystem(t, 3), Mode: Benign, Transport: c.net,
		Rand: rand.New(rand.NewSource(2)),
		// no clock: writes fail with a non-transient error
	})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRetryingClient(base, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Write(context.Background(), "x", []byte("v")); err == nil ||
		errors.Is(err, ErrNoReplies) || errors.Is(err, ErrPartialWrite) {
		t.Errorf("expected immediate non-transient error, got %v", err)
	}
}

func TestUpdateReadModifyWrite(t *testing.T) {
	c := newCluster(t, 7)
	sys := majoritySystem(t, 7)
	cl := benignClient(t, c, sys, 1)
	ctx := context.Background()

	incr := func(old []byte, found bool) []byte {
		n := 0
		if found {
			fmt.Sscanf(string(old), "%d", &n)
		}
		return []byte(fmt.Sprint(n + 1))
	}
	for i := 0; i < 10; i++ {
		if _, err := cl.Update(ctx, "counter", incr); err != nil {
			t.Fatal(err)
		}
	}
	rr, err := cl.Read(ctx, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if string(rr.Value) != "10" {
		t.Errorf("counter = %s, want 10", rr.Value)
	}
}

func TestUpdateTwoWritersConverge(t *testing.T) {
	// Two writers update the same key through read-modify-write; majority
	// quorums make every read see the latest committed stamp, so stamps
	// strictly increase and both writers converge to one history.
	c := newCluster(t, 7)
	sys := majoritySystem(t, 7)
	w1 := benignClient(t, c, sys, 1)
	w2 := benignClient(t, c, sys, 2)
	ctx := context.Background()
	appendSelf := func(tag string) func([]byte, bool) []byte {
		return func(old []byte, _ bool) []byte {
			return append(append([]byte{}, old...), []byte(tag)...)
		}
	}
	var lastStamp ts.Stamp
	for i := 0; i < 6; i++ {
		wr, err := w1.Update(ctx, "log", appendSelf("a"))
		if err != nil {
			t.Fatal(err)
		}
		if !lastStamp.Less(wr.Stamp) {
			t.Fatalf("stamp did not advance: %v then %v", lastStamp, wr.Stamp)
		}
		lastStamp = wr.Stamp
		wr, err = w2.Update(ctx, "log", appendSelf("b"))
		if err != nil {
			t.Fatal(err)
		}
		if !lastStamp.Less(wr.Stamp) {
			t.Fatalf("stamp did not advance: %v then %v", lastStamp, wr.Stamp)
		}
		lastStamp = wr.Stamp
	}
	rr, err := w1.Read(ctx, "log")
	if err != nil {
		t.Fatal(err)
	}
	if string(rr.Value) != "abababababab" {
		t.Errorf("log = %s", rr.Value)
	}
}

// TestRetryingBackoffOnClock checks the clock-aware inter-attempt backoff:
// under a SimClock, a retry sequence against crashed servers consumes
// exactly (Attempts-1)·Backoff of virtual time — deterministic, and free
// in wall time — while a zero Backoff consumes none.
func TestRetryingBackoffOnClock(t *testing.T) {
	run := func(backoff time.Duration) time.Duration {
		sc := vtime.NewSimClock()
		var elapsed time.Duration
		sc.Run(func() {
			net := transport.NewMemNetwork(7)
			net.SetClock(sc)
			sys := majoritySystem(t, 3)
			for i := 0; i < 3; i++ {
				net.Register(quorum.ServerID(i), replica.New(quorum.ServerID(i)))
				net.Crash(quorum.ServerID(i))
			}
			base, err := NewClient(Options{
				System: sys, Mode: Benign, Transport: net,
				Rand:  rand.New(rand.NewSource(1)),
				Clock: ts.NewClock(1),
				Time:  sc,
			})
			if err != nil {
				t.Error(err)
				return
			}
			rc, err := NewRetryingClient(base, 4)
			if err != nil {
				t.Error(err)
				return
			}
			rc.Backoff = backoff
			if _, err := rc.Read(context.Background(), "k"); !errors.Is(err, ErrNoReplies) {
				t.Errorf("read against crashed cluster: %v, want ErrNoReplies", err)
			}
			elapsed = sc.Elapsed()
		})
		return elapsed
	}
	if got := run(0); got != 0 {
		t.Errorf("zero backoff consumed %v virtual time", got)
	}
	// 4 attempts, 3 sleeps between them.
	if got, want := run(50*time.Millisecond), 150*time.Millisecond; got != want {
		t.Errorf("backoff consumed %v virtual time, want %v", got, want)
	}
}

// stampingTransport records the virtual time of every call before
// delegating, so a test can reconstruct the retry schedule.
type stampingTransport struct {
	inner  transport.Transport
	clk    *vtime.SimClock
	mu     sync.Mutex
	stamps []time.Duration
}

func (s *stampingTransport) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	s.mu.Lock()
	s.stamps = append(s.stamps, s.clk.Elapsed())
	s.mu.Unlock()
	return s.inner.Call(ctx, to, req)
}

// TestRetryingBackoffDeterminism replays the same failing workload twice
// under SimClocks from one seed and requires the identical retry schedule:
// every attempt's dispatch timestamps must match to the nanosecond, spaced
// exactly Backoff apart. (The retry layer sleeps on the injected clock and
// draws quorums from the seeded Rand, so nothing in the schedule may wobble
// between runs.)
func TestRetryingBackoffDeterminism(t *testing.T) {
	const attempts = 5
	run := func() []time.Duration {
		sc := vtime.NewSimClock()
		var schedule []time.Duration
		sc.Run(func() {
			net := transport.NewMemNetwork(7)
			net.SetClock(sc)
			sys := majoritySystem(t, 3)
			for i := 0; i < 3; i++ {
				net.Register(quorum.ServerID(i), replica.New(quorum.ServerID(i)))
				net.Crash(quorum.ServerID(i))
			}
			st := &stampingTransport{inner: net, clk: sc}
			base, err := NewClient(Options{
				System: sys, Mode: Benign, Transport: st,
				Rand:  rand.New(rand.NewSource(5)),
				Clock: ts.NewClock(1),
				Time:  sc,
			})
			if err != nil {
				t.Error(err)
				return
			}
			rc, err := NewRetryingClient(base, attempts)
			if err != nil {
				t.Error(err)
				return
			}
			rc.Backoff = 20 * time.Millisecond
			if _, err := rc.Read(context.Background(), "k"); !errors.Is(err, ErrNoReplies) {
				t.Errorf("read against crashed cluster: %v, want ErrNoReplies", err)
			}
			// Concurrent member dispatches within one attempt share a virtual
			// instant; the distinct timestamps are the attempt schedule.
			st.mu.Lock()
			for _, s := range st.stamps {
				if len(schedule) == 0 || schedule[len(schedule)-1] != s {
					schedule = append(schedule, s)
				}
			}
			st.mu.Unlock()
		})
		return schedule
	}
	a, b := run(), run()
	if len(a) != attempts {
		t.Fatalf("observed %d attempts (%v), want %d", len(a), a, attempts)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d dispatched at %v vs %v: retry schedule is not replaying", i, a[i], b[i])
		}
		if want := time.Duration(i) * 20 * time.Millisecond; a[i] != want {
			t.Fatalf("attempt %d at %v, want %v (Backoff spacing)", i, a[i], want)
		}
	}
}

// flakyTransport fails its first failN calls with a transient error, then
// delegates — a server set that is briefly unreachable and then recovers.
type flakyTransport struct {
	inner transport.Transport
	mu    sync.Mutex
	failN int
	calls int
}

func (f *flakyTransport) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	f.mu.Lock()
	f.calls++
	fail := f.failN > 0
	if fail {
		f.failN--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("flaky: transient outage")
	}
	return f.inner.Call(ctx, to, req)
}

// TestRetryingUpdateRetriesTransientFailure pins the retry-bypass bug:
// Update used to be defined only on *Client, so calls through the embedded
// pointer ran the NON-retrying Read/Write and a transient first-attempt
// failure failed the whole RMW. RetryingClient.Update must ride the
// retrying paths instead.
func TestRetryingUpdateRetriesTransientFailure(t *testing.T) {
	const n = 3 // majority quorum size 2
	net := transport.NewMemNetwork(11)
	for i := 0; i < n; i++ {
		net.Register(quorum.ServerID(i), replica.New(quorum.ServerID(i)))
	}
	sys := majoritySystem(t, n)
	flaky := &flakyTransport{inner: net}
	base, err := NewClient(Options{
		System: sys, Mode: Benign, Transport: flaky,
		Rand:  rand.New(rand.NewSource(3)),
		Clock: ts.NewClock(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRetryingClient(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rc.Write(ctx, "counter", []byte("41")); err != nil {
		t.Fatal(err)
	}
	// Fail the next full read quorum: the RMW's first read attempt dies,
	// the retry succeeds, and the increment must still land.
	flaky.mu.Lock()
	flaky.failN = 2
	flaky.mu.Unlock()
	wr, err := rc.Update(ctx, "counter", func(old []byte, found bool) []byte {
		if !found {
			t.Errorf("update read lost the committed value")
		}
		v := 0
		fmt.Sscanf(string(old), "%d", &v)
		return []byte(fmt.Sprint(v + 1))
	})
	if err != nil {
		t.Fatalf("Update with transient first-attempt failure: %v", err)
	}
	if wr.Stamp.IsZero() {
		t.Fatal("update write did not commit")
	}
	rr, err := rc.Read(ctx, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if string(rr.Value) != "42" {
		t.Errorf("counter = %s, want 42 (RMW did not complete through retries)", rr.Value)
	}
}

// TestPermanentNoRepliesStopsRetrying: when every member fails with a
// permanent error the operation's error is ErrNoReplies and permanent, and
// RetryingClient makes one attempt; one member failing transiently makes
// the error transient, and every attempt is spent.
func TestPermanentNoRepliesStopsRetrying(t *testing.T) {
	const n, attempts = 5, 3
	for _, c := range []struct {
		name      string
		permanent bool
	}{{"all permanent", true}, {"one transient", false}} {
		t.Run(c.name, func(t *testing.T) {
			net := transport.NewMemNetwork(1)
			var calls atomic.Int64
			refuse := transport.HandlerFunc(func(context.Context, any) (any, error) {
				calls.Add(1)
				return nil, wire.PermanentError(errors.New("unsupported payload"))
			})
			for i := 0; i < n; i++ {
				net.Register(quorum.ServerID(i), refuse)
			}
			perAttempt := int64(n) // the access set is every server
			if !c.permanent {
				net.Crash(2) // transient: ErrCrashed, before the handler
				perAttempt--
			}
			base, err := NewClient(Options{
				System: uniformSystem(t, n, n), Mode: Benign, Transport: net,
				Rand: rand.New(rand.NewSource(1)), Clock: ts.NewClock(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			rc, err := NewRetryingClient(base, attempts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, op := range []struct {
				name string
				do   func() error
			}{
				{"read", func() error { _, err := rc.Read(ctx, "k"); return err }},
				{"write", func() error { _, err := rc.Write(ctx, "k", []byte("v")); return err }},
			} {
				before := calls.Load()
				err := op.do()
				if !errors.Is(err, ErrNoReplies) || transport.IsPermanent(err) != c.permanent {
					t.Errorf("%s: err %v, permanent %v; want ErrNoReplies, permanent %v", op.name, err, transport.IsPermanent(err), c.permanent)
				} else if c.permanent && err.Error() != errors.Unwrap(err).Error() {
					t.Errorf("%s: the permanent error reads %q, the error it marks %q", op.name, err, errors.Unwrap(err))
				}
				wantAttempts := int64(attempts)
				if c.permanent {
					wantAttempts = 1
				}
				if got := calls.Load() - before; got != wantAttempts*perAttempt {
					t.Errorf("%s: %d calls reached a handler, want %d attempts' worth", op.name, got, wantAttempts)
				}
			}
		})
	}
}
