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

	unpark func() // what Park returns: one closure, made by NewSimClock
}

// NewSimClock returns a virtual clock at the simulation epoch. It is inert
// until Run is called.
func NewSimClock() *SimClock {
	c := &SimClock{}
	c.cond = sync.NewCond(&c.mu)
	c.unpark = func() {
		c.mu.Lock()
		c.parked--
		c.mu.Unlock()
	}
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
// worker's own Park or exit performs the next guarded wake); what the guard
// buys is not waking the sleeping scheduler thread on every tracked
// message receipt, which at population scale (tens of replies per
// operation, hundreds of thousands of operations) is millions of futex
// round-trips. c.mu must be held.
func (c *SimClock) wakeLocked() {
	if c.parked == c.workers && c.pending == 0 {
		c.cond.Broadcast()
	}
}

// Park marks the calling worker as blocked on an event outside the clock
// (a tracked channel receive, a WaitGroup). It returns the unpark function
// the worker must call as soon as the blocking operation returns, before
// consuming what woke it (NoteRecv comes after unpark).
func (c *SimClock) Park() func() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		panic("vtime: SimClock used outside Run")
	}
	c.parked++
	c.wakeLocked()
	c.mu.Unlock()
	return c.unpark
}

// NoteSend records that a tracked message is about to be sent: the system
// cannot be quiescent until a NoteRecv consumes it. Call immediately
// before the channel send.
func (c *SimClock) NoteSend() {
	c.mu.Lock()
	c.pending++
	c.mu.Unlock()
}

// NoteRecv records consumption of a tracked message. Call after the
// receive (and after unparking).
func (c *SimClock) NoteRecv() {
	c.mu.Lock()
	c.pending--
	c.wakeLocked()
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
// worker has finished. An AfterFunc callback runs here, with c.mu released:
// every worker is parked, so nothing else runs until the callback wakes it.
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
		// Channel timer: the fire is a tracked message. The channel has
		// capacity 1 and is empty here (Stop/Reset discard undelivered
		// fires, and a timer fires at most once per arming), so the send
		// cannot block. Exactly one of c and wake is non-nil.
		select {
		case t.c <- c.timeLocked():
			c.pending++
		case t.wake <- struct{}{}:
			c.pending++
		default:
		}
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
	t := c.arm(&simTimer{clk: c, wake: make(chan struct{}, 1)}, d)
	unpark := c.Park()
	<-t.wake
	unpark()
	c.NoteRecv()
}

// SleepCtx implements Clock: Sleep, abandoned early if ctx is done. The
// cancellation must originate inside the simulated world (a worker or an
// AfterFunc); external cancellations race the scheduler.
func (c *SimClock) SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := c.arm(&simTimer{clk: c, wake: make(chan struct{}, 1)}, d)
	unpark := c.Park()
	select {
	case <-t.wake:
		unpark()
		c.NoteRecv()
		// A cancellation that raced the timer fire still reports as a
		// cancellation, so the caller's outcome does not depend on which
		// wake-up won.
		return ctx.Err()
	case <-ctx.Done():
		unpark()
		t.stop()
		return ctx.Err()
	}
}

// NewTimer implements Clock.
func (c *SimClock) NewTimer(d time.Duration) *Timer {
	st := c.arm(&simTimer{clk: c, c: make(chan time.Time, 1)}, d)
	return &Timer{C: st.c, sim: st}
}

// AfterFunc implements Clock: fn runs on the scheduler when the timer
// fires (see the package doc's rule 3).
func (c *SimClock) AfterFunc(d time.Duration, fn func()) *Timer {
	return &Timer{sim: c.arm(&simTimer{clk: c, fn: fn}, d)}
}

// Mark implements Clock: the instant d from now and the next creation
// sequence number, the place scheduleLocked would give a timer armed here.
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
	c.scheduleLocked(st, d)
	c.mu.Unlock()
	return st
}

// scheduleLocked arms st for d from now. c.mu must be held.
func (c *SimClock) scheduleLocked(st *simTimer, d time.Duration) {
	c.pushLocked(st, c.markLocked(d))
}

// pushLocked arms st at m. c.mu must be held.
func (c *SimClock) pushLocked(st *simTimer, m Mark) {
	st.at = m
	heap.Push(&c.timers, st)
	c.wakeLocked()
}

// simTimer is a SimClock timer: a NewTimer's channel timer (c != nil), a
// bare wait of the clock's own (wake != nil: no time value, so the channel
// is one allocation, where a chan time.Time is two), or an AfterFunc timer
// or Alarm (fn != nil).
type simTimer struct {
	clk  *SimClock
	c    chan time.Time
	wake chan struct{}
	fn   func()
	at   Mark
	idx  int // heap index; -1 when not scheduled
}

// stop implements Timer.Stop: cancel if pending, and discard an
// undelivered fire (Go 1.23 semantics).
func (t *simTimer) stop() bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	if t.idx >= 0 {
		heap.Remove(&t.clk.timers, t.idx)
		return true
	}
	t.drainLocked()
	return false
}

// reset implements Timer.Reset: re-arm for d from now, discarding any
// undelivered fire first.
func (t *simTimer) reset(d time.Duration) bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	active := t.idx >= 0
	if active {
		heap.Remove(&t.clk.timers, t.idx)
	} else {
		t.drainLocked()
	}
	t.clk.scheduleLocked(t, d)
	return active
}

// drainLocked discards an undelivered fire, balancing its pending count.
// clk.mu must be held.
func (t *simTimer) drainLocked() {
	select {
	case <-t.c:
	case <-t.wake:
	default:
		return
	}
	t.clk.pending--
	t.clk.wakeLocked()
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
	waiters []chan struct{}
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
		w.sim.NoteSend()
		ch <- struct{}{}
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
	ch := make(chan struct{}, 1)
	w.waiters = append(w.waiters, ch)
	w.mu.Unlock()

	unpark := w.sim.Park()
	<-ch
	unpark()
	w.sim.NoteRecv()
}
