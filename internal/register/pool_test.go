package register

// Regressions for the wall-mode dispatch pool (dispatchPool in access.go):
// an idle stack with private mailboxes, retired by a clock-driven sweep.
// The sweeps are driven by hand through a stub clock, so what a test
// observes never depends on how fast the machine runs it. The pool is where
// calls go that might park, and a zero-latency MemNetwork says its calls
// cannot, so the clients here reach it through callOnly, as a socket
// transport would. Run under -race.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pqs/internal/vtime"
)

// sweepClock is the wall clock with AfterFunc captured instead of armed: the
// test fires the pool's sweeps itself.
type sweepClock struct {
	*vtime.WallClock

	mu     sync.Mutex
	armed  []func()
	delays []time.Duration
}

func (c *sweepClock) AfterFunc(d time.Duration, fn func()) *vtime.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = append(c.armed, fn)
	c.delays = append(c.delays, d)
	return &vtime.Timer{} // the pool never stops a sweep timer
}

// fire runs every armed callback once, reporting how many ran.
func (c *sweepClock) fire() int {
	c.mu.Lock()
	fns := c.armed
	c.armed = nil
	c.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
	return len(fns)
}

// idleWorkers snapshots the cell's idle stack.
func idleWorkers(c *cell) []*poolWorker {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return append([]*poolWorker(nil), c.pool.idle...)
}

// TestPoolSteadyStateSpawnsNothing: once an operation has had all q calls in
// flight together the pool holds q workers, and from then on serial
// operations are served by those very workers — a worker is back on the
// idle stack before its reply can be consumed, so the next operation finds
// all q idle. None is spawned: the stack holds the same q *poolWorker
// values after 200 operations, and the goroutine count has not moved.
func TestPoolSteadyStateSpawnsNothing(t *testing.T) {
	const n, q = 9, 5
	clk := &sweepClock{WallClock: vtime.Wall()}
	net := newCluster(t, n)
	cl := hedgedClient(t, net, uniformSystem(t, n, q), Options{Time: clk, Transport: callOnly{net.net}})
	c := cl.cells[0]
	ctx := context.Background()

	// Warm up under latency, so no call returns before the last is issued.
	net.net.SetLatency(5*time.Millisecond, 5*time.Millisecond)
	if _, err := cl.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	net.net.SetLatency(0, 0)
	warm := make(map[*poolWorker]bool)
	for _, w := range idleWorkers(c) {
		warm[w] = true
	}
	if len(warm) != q {
		t.Fatalf("%d workers idle after a write with %d calls in flight together, want %d", len(warm), q, q)
	}
	goroutines := runtime.NumGoroutine()

	for i := 0; i < 200; i++ {
		if _, err := cl.Read(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		if got := len(idleWorkers(c)); got != q {
			t.Fatalf("read %d returned with %d workers idle, want all %d", i, got, q)
		}
	}
	for _, w := range idleWorkers(c) {
		if !warm[w] {
			t.Error("a worker was spawned in steady state")
		}
	}
	if got := runtime.NumGoroutine(); got != goroutines {
		t.Errorf("goroutines %d → %d over 200 steady-state reads", goroutines, got)
	}
	if len(clk.delays) != 1 || clk.delays[0] != poolIdleRetire/2 {
		t.Errorf("sweep timers armed: %v, want exactly one, for poolIdleRetire/2 = %v", clk.delays, poolIdleRetire/2)
	}
}

// TestPoolRetiresWithinTwoSweeps: a worker survives the first sweep after it
// went idle and is gone at the second — poolIdleRetire/2 apart, so within
// poolIdleRetire of its last job — after which the pool holds no goroutine
// and arms no further timer.
func TestPoolRetiresWithinTwoSweeps(t *testing.T) {
	const n, q = 9, 5
	baseline := runtime.NumGoroutine()
	clk := &sweepClock{WallClock: vtime.Wall()}
	net := newCluster(t, n)
	cl := hedgedClient(t, net, uniformSystem(t, n, q), Options{Time: clk, Transport: callOnly{net.net}})
	c := cl.cells[0]
	if _, err := cl.Write(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Every worker that served the write was idle before its reply was read.
	held := len(idleWorkers(c))
	if held == 0 {
		t.Fatal("no worker idle after an operation returned")
	}

	if got := clk.fire(); got != 1 {
		t.Fatalf("%d sweep timers armed after one operation, want 1", got)
	}
	if got := len(idleWorkers(c)); got != held {
		t.Fatalf("first sweep retired workers idle for less than a full period: %d → %d", held, got)
	}
	if got := clk.fire(); got != 1 {
		t.Fatalf("%d sweep timers re-armed with %d workers idle, want 1", got, held)
	}
	if got := len(idleWorkers(c)); got != 0 {
		t.Fatalf("%d workers still idle after their second sweep", got)
	}
	if got := clk.fire(); got != 0 {
		t.Errorf("sweep re-armed itself over an empty pool (%d timers): it would keep the cell reachable", got)
	}
	settleGoroutines(t, baseline)

	// The pool restarts from empty: next operation, new workers, new sweep.
	if _, err := cl.Read(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	if got := clk.fire(); got != 1 {
		t.Errorf("%d sweep timers armed by the first operation after a full retirement, want 1", got)
	}
	clk.fire()
	clk.fire()
	settleGoroutines(t, baseline)
}

// TestPoolBurstNeverStrandsAJob hammers the pool with concurrent operations
// while sweeps fire back to back, so workers are being retired at the same
// moments others are being popped: a job handed to a worker a sweep had
// already chosen would never run and its operation would hang. Every
// operation must complete, and once the load stops two sweeps empty the pool.
func TestPoolBurstNeverStrandsAJob(t *testing.T) {
	const n, q, clients, ops = 12, 6, 8, 150
	baseline := runtime.NumGoroutine()
	clk := &sweepClock{WallClock: vtime.Wall()}
	net := newCluster(t, n)
	cl := hedgedClient(t, net, uniformSystem(t, n, q), Options{Time: clk, Transport: callOnly{net.net}})
	c := cl.cells[0]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.fire()
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g) // one writer per key
			for i := 0; i < ops; i++ {
				want := fmt.Sprintf("v%d-%d", g, i)
				if wr, err := cl.Write(ctx, key, []byte(want)); err != nil || len(wr.Acked) != q {
					t.Errorf("client %d write %d: acked %d/%d, err %v", g, i, len(wr.Acked), q, err)
					return
				}
				if rr, err := cl.Read(ctx, key); err != nil || rr.Replies != q {
					t.Errorf("client %d read %d: %d/%d replies, err %v", g, i, rr.Replies, q, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	sweeper.Wait()
	if ctx.Err() != nil {
		t.Fatal("operations hung: a job was stranded on a retiring worker")
	}

	clk.fire()
	clk.fire()
	if got := len(idleWorkers(c)); got != 0 {
		t.Errorf("%d workers survive two sweeps with no load", got)
	}
	settleGoroutines(t, baseline)
}

// TestPoolRetiresOnTheWallClock is the end-to-end check with the real clock:
// a quiescent client holds no goroutines a little past poolIdleRetire.
func TestPoolRetiresOnTheWallClock(t *testing.T) {
	const n, q = 9, 5
	baseline := runtime.NumGoroutine()
	net := newCluster(t, n)
	cl := hedgedClient(t, net, uniformSystem(t, n, q), Options{Transport: callOnly{net.net}})
	for i := 0; i < 20; i++ {
		if _, err := cl.Write(context.Background(), "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	settleGoroutines(t, baseline)
	if took := time.Since(start); took > 5*poolIdleRetire {
		// Generous: the bound is poolIdleRetire, the slack is for a loaded
		// CI machine's timer latency; the exact bound is pinned above.
		t.Errorf("idle workers took %v to retire, want about %v", took, poolIdleRetire)
	}
}
