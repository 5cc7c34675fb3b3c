package register

// Regressions for the dispatch pool (dispatchPool in access.go): an idle
// stack with private mailboxes, retired by a clock-driven sweep. On the wall
// clock the sweeps are driven by hand through a stub clock, so what a test
// observes never depends on how fast the machine runs it; under a SimClock
// they are virtual timers. The pool is where calls go that might park, and
// a zero-latency MemNetwork says its calls cannot, so the wall-clock
// clients here reach it through callOnly, as a socket transport would. Run
// under -race.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/transport"
	"pqs/internal/ts"
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

// virtualHedgedReader is the client of the virtual-dispatch test and
// benchmark, built inside clk.Run: n = 100 replicas behind 200-800µs of
// virtual latency, a uniform q = 23 system with 2 spares and a 500µs hedge
// delay, so nearly every read promotes a spare. Reads are not eager, so
// each waits for every call it made and leaves nothing to a drain. wrap,
// when non-nil, stands between the client and the network.
func virtualHedgedReader(clk *vtime.SimClock, wrap func(transport.Transport) transport.Transport) (*Client, error) {
	net := newVirtualNet(100, 1, clk)
	net.SetLatency(200*time.Microsecond, 800*time.Microsecond)
	sys, err := quorum.NewUniform(100, 23)
	if err != nil {
		return nil, err
	}
	var tr transport.Transport = net
	if wrap != nil {
		tr = wrap(net)
	}
	return NewClient(Options{
		System: sys, Mode: Benign, Transport: tr, Time: clk,
		Rand: rand.New(rand.NewSource(1)), Clock: ts.NewClock(1),
		Tuning: config.Tuning{Spares: 2, HedgeDelay: 500 * time.Microsecond},
	})
}

// callProbe forwards calls, recording which goroutine made each one and the
// most goroutines the process had when one was made.
type callProbe struct {
	transport.Transport

	mu         sync.Mutex
	goroutines map[string]bool
	peak       int
}

func (p *callProbe) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	var buf [64]byte
	id := string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1]) // "goroutine <id> [running]:"
	live := runtime.NumGoroutine()
	p.mu.Lock()
	p.goroutines[id] = true
	p.peak = max(p.peak, live)
	p.mu.Unlock()
	return p.Transport.Call(ctx, to, req)
}

// TestVirtualDispatchReusesWorkers: under a SimClock, calls that park run on
// the same pooled workers as on the wall clock. Over 50 sequential hedged
// reads no more than q + spares distinct goroutines ever make a call, the
// process never holds more than that many goroutines beyond what it had
// before the first read, and Run returns once the idle workers retire.
// (Virtual time stays under two sweep periods, so no worker retires while
// the reads run.)
func TestVirtualDispatchReusesWorkers(t *testing.T) {
	const q, spares, reads = 23, 2, 50
	clk := vtime.NewSimClock()
	probe := &callProbe{goroutines: map[string]bool{}}
	var baseline, promoted int
	var took time.Duration
	var failed error
	clk.Run(func() {
		cl, err := virtualHedgedReader(clk, func(net transport.Transport) transport.Transport {
			probe.Transport = net
			return probe
		})
		if err != nil {
			failed = err
			return
		}
		baseline = runtime.NumGoroutine()
		for i := 0; i < reads; i++ {
			rr, err := cl.Read(context.Background(), "k")
			if err != nil {
				failed = fmt.Errorf("read %d: %w", i, err)
				return
			}
			promoted += rr.Promoted
		}
		took = clk.Elapsed()
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if promoted == 0 {
		t.Fatal("no read promoted a spare: the test no longer exercises hedging")
	}
	if took >= poolIdleRetire {
		t.Fatalf("the reads covered %v of virtual time: workers may retire mid-run, which the bounds below do not allow for", took)
	}
	if got := len(probe.goroutines); got > q+spares {
		t.Errorf("%d distinct goroutines made calls over %d reads, want at most q + spares = %d", got, reads, q+spares)
	}
	if probe.peak > baseline+q+spares {
		t.Errorf("%d goroutines at peak, %d before the first read: more than q + spares = %d workers", probe.peak, baseline, q+spares)
	}
	t.Logf("%d reads, %d spares promoted, %v virtual: %d goroutines made calls, peak %d over a baseline of %d",
		reads, promoted, took, len(probe.goroutines), probe.peak, baseline)
}

// BenchmarkVirtualHedgedRead prices one hedged read under a SimClock with
// every call on a pooled worker (TestVirtualDispatchReusesWorkers's shape).
func BenchmarkVirtualHedgedRead(b *testing.B) {
	clk := vtime.NewSimClock()
	var failed error
	clk.Run(func() {
		cl, err := virtualHedgedReader(clk, nil)
		if err != nil {
			failed = err
			return
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Read(ctx, "k"); err != nil {
				failed = err
				return
			}
		}
		b.StopTimer()
	})
	if failed != nil {
		b.Fatal(failed)
	}
}
