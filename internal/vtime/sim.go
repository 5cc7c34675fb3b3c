package vtime

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"
)

// simEpoch is the fixed virtual origin. A constant (rather than the wall
// clock at construction) keeps every SimClock run bit-identical: virtual
// timestamps recorded by one run equal those of a replay.
var simEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// SimClock is the deterministic virtual-time scheduler. Construct with
// NewSimClock, enter the simulated world with Run, and spawn every
// participant goroutine with Go. See the package documentation for the
// ordering guarantees and the worker discipline.
//
// All methods are safe for concurrent use by worker goroutines.
type SimClock struct {
	mu   sync.Mutex
	cond *sync.Cond

	now     int64  // virtual nanoseconds since simEpoch
	seq     uint64 // timer creation sequence; the deadline tie-break
	timers  timerHeap
	workers int // registered worker goroutines
	parked  int // workers blocked in a clock wait
	pending int // tracked messages sent but not yet consumed
	running bool
}

// NewSimClock returns a virtual clock at the simulation epoch. It is inert
// until Run is called.
func NewSimClock() *SimClock {
	c := &SimClock{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Run executes fn as the root worker of the simulated world and drives the
// scheduler until fn and every worker it spawned have finished. It panics
// if the simulation deadlocks: every worker parked, no undelivered message,
// and no timer left to fire.
func (c *SimClock) Run(fn func()) {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		panic("vtime: SimClock.Run called while already running")
	}
	c.running = true
	c.mu.Unlock()

	c.Go(fn)
	c.schedule()

	c.mu.Lock()
	c.running = false
	c.mu.Unlock()
}

// Go spawns fn as a registered worker goroutine. Every goroutine that
// participates in the simulation must be spawned this way (or be the Run
// root); a plain go statement is invisible to the quiescence detector.
func (c *SimClock) Go(fn func()) {
	c.mu.Lock()
	c.workers++
	c.mu.Unlock()
	go func() {
		defer c.workerDone()
		fn()
	}()
}

func (c *SimClock) workerDone() {
	c.mu.Lock()
	c.workers--
	c.cond.Broadcast()
	c.mu.Unlock()
}

// wakeLocked wakes the scheduler, but only when its actionable condition —
// every worker parked and no tracked message in flight — currently holds.
// The scheduler re-checks the full condition on every wake anyway, so
// skipping a broadcast while some worker is still runnable is safe (that
// worker's own park or exit performs the next guarded wake); what the guard
// buys is not waking the sleeping scheduler thread on every tracked
// message receipt, which at population scale (tens of replies per
// operation, hundreds of thousands of operations) is millions of futex
// round-trips. c.mu must be held.
func (c *SimClock) wakeLocked() {
	if c.parked == c.workers && c.pending == 0 {
		c.cond.Broadcast()
	}
}

// park marks the calling worker as blocked on a tracked wake-up (a Chan
// receive, a clock wait); unpark, or unparkRecv when the wake-up is taken,
// undoes it the moment the blocking operation returns.
func (c *SimClock) park() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		panic("vtime: SimClock used outside Run")
	}
	c.parked++
	c.wakeLocked()
	c.mu.Unlock()
}

// unpark marks a parked worker running again.
func (c *SimClock) unpark() {
	c.mu.Lock()
	c.parked--
	c.mu.Unlock()
}

// unparkRecv is unpark plus the consumption of the tracked message that
// woke the worker.
func (c *SimClock) unparkRecv() {
	c.mu.Lock()
	c.parked--
	c.pending--
	c.wakeLocked()
	c.mu.Unlock()
}

// noteSend records that a tracked message is about to be sent: the system
// cannot be quiescent until a receive consumes it.
func (c *SimClock) noteSend() {
	c.mu.Lock()
	c.pending++
	c.mu.Unlock()
}

// Elapsed returns the virtual time consumed since construction — the
// "simulated seconds" a speedup measurement compares against wall time.
func (c *SimClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.now)
}

// schedule is the event loop Run drives on the caller's goroutine: wait
// for quiescence, fire the earliest timer, repeat; return when every
// worker has finished. A callback (AfterFunc, Alarm) runs here, with c.mu
// released: every worker is parked, so nothing else runs until the callback
// wakes it.
func (c *SimClock) schedule() {
	c.mu.Lock()
	for c.workers > 0 {
		if c.parked < c.workers || c.pending > 0 {
			c.cond.Wait()
			continue
		}
		if len(c.timers) == 0 {
			msg := fmt.Sprintf(
				"vtime: deadlock: every worker parked, nothing pending, no timer to fire (workers=%d parked=%d pending=%d timers=%d)",
				c.workers, c.parked, c.pending, len(c.timers))
			c.mu.Unlock()
			panic(msg)
		}
		t := heap.Pop(&c.timers).(*simTimer)
		c.now = max(c.now, t.at.at)
		if t.fn != nil {
			c.mu.Unlock()
			t.fn()
			c.mu.Lock()
			continue
		}
		// A clock wait: the fire is a tracked message on a channel of
		// capacity 1 that is armed once, so the send cannot block.
		t.wake.ch <- struct{}{}
		c.pending++
	}
	c.mu.Unlock()
}

// Now implements Clock.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timeLocked()
}

// timeLocked is now as a time.Time. c.mu must be held.
func (c *SimClock) timeLocked() time.Time { return simEpoch.Add(time.Duration(c.now)) }

// Since implements Clock.
func (c *SimClock) Since(t time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timeLocked().Sub(t)
}

// Sleep implements Clock: it blocks the calling worker until virtual time
// has advanced by d.
func (c *SimClock) Sleep(d time.Duration) {
	if d > 0 {
		c.waitTimer(d)
	}
}

// Settle parks the calling worker until every other worker is parked and no
// tracked message is in flight, without advancing virtual time: a
// zero-delay timer fires only at quiescence. A driver calls it after an
// action whose consequences run on other workers (a connection reset waking
// read loops) and must be over before its next step.
func (c *SimClock) Settle() { c.waitTimer(0) }

// waitTimer parks the calling worker until a timer of d fires.
func (c *SimClock) waitTimer(d time.Duration) {
	c.arm(c.newWait(), d).wake.Recv()
}

// newWait returns an unarmed wait of the clock's own.
func (c *SimClock) newWait() *simTimer {
	return &simTimer{clk: c, wake: NewChan[struct{}](Sched{c}, 1)}
}

// SleepCtx implements Clock: Sleep, abandoned early if ctx is done. The
// cancellation must originate inside the simulated world (a worker or an
// AfterFunc); external cancellations race the scheduler.
func (c *SimClock) SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := c.arm(c.newWait(), d)
	if _, err := t.wake.RecvCtx(ctx); err != nil {
		c.mu.Lock()
		armed := t.removeLocked()
		c.mu.Unlock()
		if !armed {
			t.wake.Recv() // it fired: the scheduler sent the wake-up as it popped it
		}
		return err
	}
	// A cancellation that raced the timer fire still reports as a
	// cancellation, so the caller's outcome does not depend on which
	// wake-up won.
	return ctx.Err()
}

// AfterFunc implements Clock: fn runs on the scheduler when the timer
// fires (see the package doc's rule 3).
func (c *SimClock) AfterFunc(d time.Duration, fn func()) {
	c.arm(&simTimer{clk: c, fn: fn}, d)
}

// Mark implements Clock: the instant d from now and the next creation
// sequence number, the place arm would give a timer armed here.
func (c *SimClock) Mark(d time.Duration) Mark {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.markLocked(d)
}

// markLocked draws the next mark. c.mu must be held.
func (c *SimClock) markLocked(d time.Duration) Mark {
	c.seq++
	return Mark{at: c.now + int64(max(d, 0)), seq: c.seq}
}

// arm schedules st for d from now and returns it.
func (c *SimClock) arm(st *simTimer, d time.Duration) *simTimer {
	c.mu.Lock()
	c.pushLocked(st, c.markLocked(d))
	c.mu.Unlock()
	return st
}

// pushLocked arms st at m. c.mu must be held.
func (c *SimClock) pushLocked(st *simTimer, m Mark) {
	st.at = m
	heap.Push(&c.timers, st)
	c.wakeLocked()
}

// simTimer is a SimClock timer: a wait of the clock's own, whose fire is a
// tracked message on wake, or a callback (fn != nil: AfterFunc, Alarm).
type simTimer struct {
	clk  *SimClock
	wake Chan[struct{}]
	fn   func()
	at   Mark
	idx  int // heap index; -1 when not scheduled
}

// removeLocked takes t off the heap, reporting whether it was armed.
// clk.mu must be held.
func (t *simTimer) removeLocked() bool {
	if t.idx < 0 {
		return false
	}
	heap.Remove(&t.clk.timers, t.idx)
	return true
}

// timerHeap orders timers by (deadline, creation sequence).
type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	a, b := h[i].at, h[j].at
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*simTimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.idx = -1
	*h = old[:n-1]
	return t
}

var _ Clock = (*SimClock)(nil)

// WaitGroup is a clock-aware sync.WaitGroup: under a SimClock, a Wait is a
// parked state the quiescence detector understands, and the final Done is
// a tracked wake-up, so the scheduler never advances virtual time while a
// waiter is between release and resumption. Under a wall clock it is a
// plain sync.WaitGroup. Construct with NewWaitGroup.
type WaitGroup struct {
	sim *SimClock // nil in wall mode

	wg sync.WaitGroup // wall mode

	mu      sync.Mutex // sim mode
	n       int
	waiters []Chan[struct{}]
}

// NewWaitGroup returns a WaitGroup bound to c's scheduling discipline.
func NewWaitGroup(c Clock) *WaitGroup {
	sc, _ := c.(*SimClock)
	return &WaitGroup{sim: sc}
}

// Add adds delta to the counter.
func (w *WaitGroup) Add(delta int) {
	if w.sim == nil {
		w.wg.Add(delta)
		return
	}
	w.mu.Lock()
	w.n += delta
	if w.n < 0 {
		w.mu.Unlock()
		panic("vtime: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.releaseLocked()
	}
	w.mu.Unlock()
}

// Done decrements the counter, releasing waiters at zero.
func (w *WaitGroup) Done() { w.Add(-1) }

// releaseLocked wakes every waiter; each wake-up is a tracked message so
// the scheduler waits for the waiters to actually resume. w.mu must be
// held.
func (w *WaitGroup) releaseLocked() {
	for _, ch := range w.waiters {
		ch.Send(struct{}{})
	}
	w.waiters = nil
}

// Wait blocks until the counter is zero.
func (w *WaitGroup) Wait() {
	if w.sim == nil {
		w.wg.Wait()
		return
	}
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return
	}
	ch := NewChan[struct{}](Sched{w.sim}, 1)
	w.waiters = append(w.waiters, ch)
	w.mu.Unlock()
	ch.Recv()
}
