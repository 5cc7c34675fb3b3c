package vtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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

	// now and seq are read without mu: now moves only at quiescence, when
	// no worker runs to read it, and two marks drawn at once race each other
	// under a lock as much as without one.
	now     atomic.Int64  // virtual nanoseconds since simEpoch; stored under mu
	seq     atomic.Uint64 // timer creation sequence; the deadline tie-break
	timers  timerHeap
	workers int // registered worker goroutines
	parked  int // workers blocked in a clock wait
	pending int // tracked messages sent but not yet consumed
	running bool
	driving bool // a goroutine is firing timers: one event at a time
}

// NewSimClock returns a virtual clock at the simulation epoch. It is inert
// until Run is called.
func NewSimClock() *SimClock {
	c := &SimClock{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Run executes fn as the root worker of the simulated world and returns
// when fn and every worker it spawned have finished. Timers are fired by
// the worker whose park quiets the world (see driveLocked), and by Run's
// goroutine when a worker's exit does. It panics if the simulation
// deadlocks: every worker parked, no undelivered message, and no timer left
// to fire.
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

// quiescentLocked reports whether every worker is parked and no tracked
// message is in flight: the only state in which a timer may fire. A world
// whose last worker has exited is over, not quiescent. c.mu must be held.
func (c *SimClock) quiescentLocked() bool {
	return c.workers > 0 && c.parked == c.workers && c.pending == 0
}

// wakeLocked wakes Run's goroutine, but only when it could act: the world
// is quiescent and nobody is driving. Run re-checks on every wake anyway,
// so skipping a broadcast while some worker is still runnable is safe (that
// worker's own park or exit acts next); what the guard buys is not waking
// the sleeping thread on every tracked message receipt, nor on every timer
// a callback arms, which at population scale (tens of replies per
// operation, hundreds of thousands of operations) is millions of futex
// round-trips. c.mu must be held.
func (c *SimClock) wakeLocked() {
	if !c.driving && c.quiescentLocked() {
		c.cond.Broadcast()
	}
}

// park marks the calling worker as blocked on a tracked wake-up (a Chan
// receive, a clock wait); unpark, or unparkRecv when the wake-up is taken,
// undoes it the moment the blocking operation returns. A park that quiets
// the world drives the clock before the worker blocks.
func (c *SimClock) park() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		panic("vtime: SimClock used outside Run")
	}
	c.parked++
	c.driveLocked()
	c.mu.Unlock()
}

// driveLocked fires timers on the calling goroutine while the world stays
// quiescent and timers remain, unless somebody is already driving. The
// caller is Run's goroutine or a parked worker, typically the one whose
// park made the world quiescent: when a fire wakes that worker itself (a
// gather's reply, its own Sleep), the message is already in its buffer as
// it leaves park, and the hand-off costs no goroutine switch. The driving
// flag keeps it one event at a time: a worker that a callback wakes and
// that parks again before the callback returns does not start a second
// loop. A driver that stops at quiescence with no timer left wakes Run,
// which raises the deadlock panic. c.mu must be held.
func (c *SimClock) driveLocked() {
	if c.driving || !c.quiescentLocked() {
		return
	}
	c.driving = true
	for c.quiescentLocked() && len(c.timers) > 0 {
		c.fireLocked()
	}
	c.driving = false
	c.wakeLocked()
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
func (c *SimClock) Elapsed() time.Duration { return time.Duration(c.now.Load()) }

// schedule is Run's fallback loop on the caller's goroutine: wait until
// the world is quiescent and nobody drives, then drive; return when every
// worker has finished. It acts when a worker's exit, not its park, quiets
// the world, and it raises the deadlock panic.
func (c *SimClock) schedule() {
	c.mu.Lock()
	for c.workers > 0 {
		if c.driving || !c.quiescentLocked() {
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
		c.driveLocked()
	}
	c.mu.Unlock()
}

// fireLocked takes the earliest timer, advances now to its deadline and
// fires it. A callback (AfterFunc, Alarm) runs with c.mu released: every
// worker is parked, so nothing else runs until the callback wakes it. Its
// timer stays in the heap while it runs, marked firing, and leaves after
// unless it was re-armed or stopped meanwhile: an Alarm that re-arms itself
// from its callback is re-keyed where it stands, one sift where a pop and a
// push would make two. c.mu must be held, and the caller must be driving.
func (c *SimClock) fireLocked() {
	e := c.timers[0]
	c.now.Store(max(c.now.Load(), e.at))
	t := e.t
	if t.fn != nil {
		t.firing = true
		c.mu.Unlock()
		t.fn()
		c.mu.Lock()
		if t.firing {
			t.firing = false
			c.timers.remove(t.idx)
		}
		return
	}
	// A clock wait: the fire is a tracked message on a channel of capacity
	// 1 that is armed once, so the send cannot block.
	c.timers.remove(0)
	t.wake.ch <- struct{}{}
	c.pending++
}

// Now implements Clock.
func (c *SimClock) Now() time.Time { return simEpoch.Add(c.Elapsed()) }

// Since implements Clock.
func (c *SimClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

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
			t.wake.Recv() // it fired: the driver sent the wake-up as it popped it
		}
		return err
	}
	// A cancellation that raced the timer fire still reports as a
	// cancellation, so the caller's outcome does not depend on which
	// wake-up won.
	return ctx.Err()
}

// AfterFunc implements Clock: fn runs on the goroutine driving the clock
// when the timer fires (see the package doc's rule 3).
func (c *SimClock) AfterFunc(d time.Duration, fn func()) {
	c.arm(&simTimer{clk: c, fn: fn}, d)
}

// Mark implements Clock: the instant d from now and the next creation
// sequence number, the place arm would give a timer armed here.
func (c *SimClock) Mark(d time.Duration) Mark {
	return Mark{at: c.now.Load() + int64(max(d, 0)), seq: c.seq.Add(1)}
}

// arm schedules st, a timer armed once, for d from now and returns it.
func (c *SimClock) arm(st *simTimer, d time.Duration) *simTimer {
	c.mu.Lock()
	c.timers.push(st, c.Mark(d))
	c.wakeLocked()
	c.mu.Unlock()
	return st
}

// simTimer is a SimClock timer: a wait of the clock's own, whose fire is a
// tracked message on wake, or a callback (fn != nil: AfterFunc, Alarm). Its
// key lives in its heap entry, not here.
type simTimer struct {
	clk    *SimClock
	wake   Chan[struct{}]
	fn     func()
	idx    int  // heap index; -1 when not scheduled
	firing bool // its callback is running, and it is still in the heap
}

// removeLocked takes t off the heap, reporting whether it was armed.
// clk.mu must be held.
func (t *simTimer) removeLocked() bool {
	t.firing = false
	if t.idx < 0 {
		return false
	}
	t.clk.timers.remove(t.idx)
	return true
}

// timerEntry is one armed timer: its key, stored inline so that a sift
// compares entries of the heap array without following the timer pointer.
type timerEntry struct {
	at  int64  // deadline, virtual nanoseconds since simEpoch
	seq uint64 // the deadline's creation sequence number (Mark.seq)
	t   *simTimer
}

// before orders entries by (deadline, creation sequence). Over armed timers
// that order is total: every Mark's sequence number is drawn once, by
// markLocked, and a Mark is armed on one timer at a time. NotBefore moves a
// mark's instant but keeps its number, and its one user (a virtual
// connection's chunk queue) arms each chunk's mark only on that
// connection's single delivery alarm, so no two armed entries share a seq.
// One Mark armed on two alarms (which ArmAt rules out) would tie; the heap
// would still order the pair as a function of its operation sequence, which
// a deterministic run replays, but not by any rule a caller could name.
func (e *timerEntry) before(o *timerEntry) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// timerHeap is a 4-ary min-heap of timers, earliest first: entry i's
// children are 4i+1..4i+4. Its sifts keep every moved timer's idx, which
// Stop, a cancelled SleepCtx and an Alarm's re-key use to find it.
type timerHeap []timerEntry

// push arms t, which is not armed, at m.
func (h *timerHeap) push(t *simTimer, m Mark) {
	*h = append(*h, timerEntry{at: m.at, seq: m.seq, t: t})
	h.up(len(*h) - 1)
}

// remove takes the entry at i off the heap: the last entry fills the hole
// and sifts from there.
func (h *timerHeap) remove(i int) {
	s := *h
	s[i].t.idx = -1
	n := len(s) - 1
	s[i] = s[n]
	s[n] = timerEntry{}
	*h = s[:n]
	if i < n {
		h.fix(i)
	}
}

// rekey moves the armed entry at i to m in place: one sift, where a removal
// and a push would make two.
func (h timerHeap) rekey(i int, m Mark) {
	h[i].at, h[i].seq = m.at, m.seq
	h.fix(i)
}

// fix restores the heap order around i after its entry changed.
func (h timerHeap) fix(i int) {
	if i > 0 && h[i].before(&h[(i-1)/4]) {
		h.up(i)
	} else {
		h.down(i)
	}
}

// up sifts the entry at i toward the root past every later parent.
func (h timerHeap) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].t.idx = i
		i = p
	}
	h[i] = e
	e.t.idx = i
}

// down sifts the entry at i toward the leaves past every earlier child.
func (h timerHeap) down(i int) {
	e := h[i]
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		c := first
		for j := first + 1; j < min(first+4, n); j++ {
			if h[j].before(&h[c]) {
				c = j
			}
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		h[i].t.idx = i
		i = c
	}
	h[i] = e
	e.t.idx = i
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
