package register

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/transport"
	"pqs/internal/vtime"
)

// This file implements the straggler-tolerant access engine shared by Read
// and Write: it dispatches one RPC per access-set member, promotes spare
// servers when a member fails or a hedge delay elapses, and returns as soon
// as the caller's completion rule is decidable, leaving stragglers to a
// background drain that can never leak goroutines (every in-flight call owns
// one worker that terminates when its transport call returns, and the
// reply channel is buffered for every call that can ever be dispatched, so
// senders never block).
//
// Promotion preserves the attempt-level ε argument documented on
// RetryingClient and quorum.SpareSampler: a spare is dispatched only when a
// member has observably failed or when a hedge timer — independent of server
// identity — fires, so the access set that completes is the strategy's
// sample conditioned on liveness, the same conditioning a full re-sample
// performs, at a fraction of the latency.
//
// All timers and spawns go through the client's vtime.Clock. Under the
// wall clock, calls run on a stack of idle-retiring worker goroutines, each
// woken through its own mailbox (steady-state operations spawn no
// goroutines at all; see dispatchPool); under a vtime.SimClock, every call
// runs as a registered scheduler worker and the gather loop parks around
// its select, so hedge firing is part of the deterministic virtual-time
// order.

// callReply carries one server's response through the gather loop. lat is
// the call's round-trip latency, measured only when adaptive hedging needs
// it.
type callReply struct {
	id   quorum.ServerID
	resp any
	err  error
	lat  time.Duration
}

// dispatchJob is one transport call handed to a worker.
type dispatchJob struct {
	ctx   context.Context
	id    quorum.ServerID
	req   any
	ch    chan<- callReply
	timed bool
}

// poolIdleRetire bounds how long an idle wall-mode dispatch worker lingers
// for the next job before exiting: it retires at the second sweep after it
// went idle, between poolIdleRetire/2 and poolIdleRetire later. Long enough
// to serve back-to-back operations without spawning, short enough that a
// quiescent client leaves no goroutines behind (the leak regressions poll
// well past this) and a torn-down cluster is not kept reachable through
// its client's workers for longer than that.
const poolIdleRetire = 100 * time.Millisecond

// dispatchPool is the cell's wall-mode worker pool: a LIFO stack of idle
// workers, each parked on a private one-slot mailbox. Dispatch pops the
// most recently idle worker — the one whose stack and cache lines are
// warmest — and hands it the job with one direct channel send; there is no
// shared channel for workers to contend on, no select, and no per-job
// timer. Idle workers are retired by a sweep that runs on the cell's clock
// every poolIdleRetire/2 for as long as any worker is idle, and not at all
// otherwise.
type dispatchPool struct {
	mu       sync.Mutex
	idle     []*poolWorker // bottom = idle longest (pushes and pops are at the top)
	sweeps   uint64        // sweeps run so far; a worker's idle age is counted in these
	sweeping bool          // a sweep timer is armed
}

// poolWorker is one pooled worker. While it is on the idle stack its mailbox
// is empty; whoever pops it owns the single send (a job from dispatch, or
// the close from a sweep), so neither can block and a job can never reach
// a worker that is retiring.
type poolWorker struct {
	mail   chan dispatchJob
	idleAt uint64 // dispatchPool.sweeps when it was pushed
}

// call executes one job's transport call.
func (c *cell) call(j dispatchJob) callReply {
	var start time.Time
	if j.timed {
		start = c.clock.Now()
	}
	resp, err := c.opts.Transport.Call(j.ctx, j.id, j.req)
	r := callReply{id: j.id, resp: resp, err: err}
	if j.timed {
		r.lat = c.clock.Since(start)
	}
	return r
}

// runJob executes one transport call and delivers the reply. The reply
// channel is buffered for every call that can ever be dispatched, so the
// send never blocks; under a SimClock it is a tracked message.
func (c *cell) runJob(j dispatchJob) {
	r := c.call(j)
	if c.sched != nil {
		c.sched.NoteSend()
	}
	j.ch <- r
}

// dispatch hands one call to a worker: a registered scheduler worker under
// a SimClock, otherwise the most recently idle pooled goroutine (spawning a
// fresh one only when the idle stack is empty — after the first operation
// warms the pool, steady-state reads and writes spawn nothing).
func (c *cell) dispatch(ctx context.Context, id quorum.ServerID, req any, ch chan<- callReply, timed bool) {
	if c.health != nil && c.health.ServerDown(id) {
		// The transport's circuit breaker already proved this member
		// unreachable: deliver the failure at t=0 so the gather promotes a
		// spare immediately instead of burning hedge budget. The check sits
		// at dispatch — the hedge/promote logic never consults identity, so
		// the ε argument (promotion conditioned on observable failure) is
		// untouched.
		c.statServerDown.Add(1)
		if c.sched != nil {
			c.sched.NoteSend()
		}
		ch <- callReply{id: id, err: transport.ErrServerDown}
		return
	}
	j := dispatchJob{ctx: ctx, id: id, req: req, ch: ch, timed: timed}
	if c.sched != nil {
		if c.opts.InlineDispatch {
			// The reply channel is buffered for the full access set, so a
			// synchronous runJob can never block on delivery.
			c.runJob(j)
			return
		}
		c.sched.Go(func() { c.runJob(j) })
		return
	}
	p := &c.pool
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		w.mail <- j
		return
	}
	p.mu.Unlock()
	//pqslint:allow rawgo wall-clock-only fallback: this branch runs iff c.sched is nil, i.e. there is no SimClock to enroll the worker with
	go c.runPoolWorker(j)
}

// runPoolWorker is a pooled worker's body: make the call, push itself on the
// idle stack (arming the sweep if none is), deliver the reply, park on its
// mailbox; exit when a sweep closes the mailbox. It is on the stack BEFORE
// the reply goes out, so an operation that has consumed its replies finds
// every worker that served it idle: back-to-back operations re-use them
// all and spawn nothing. (The mailbox is buffered, so a job posted while
// the worker is still delivering waits there.)
func (c *cell) runPoolWorker(j dispatchJob) {
	p := &c.pool
	w := &poolWorker{mail: make(chan dispatchJob, 1)}
	for {
		r := c.call(j)
		p.mu.Lock()
		w.idleAt = p.sweeps
		p.idle = append(p.idle, w)
		if !p.sweeping {
			p.sweeping = true
			c.clock.AfterFunc(poolIdleRetire/2, c.sweepPool)
		}
		p.mu.Unlock()
		j.ch <- r
		var ok bool
		if j, ok = <-w.mail; !ok {
			return
		}
	}
}

// sweepPool retires every worker that has been idle through two sweeps —
// for at least poolIdleRetire/2, at most poolIdleRetire — and re-arms itself
// while any worker is still idle. The stack is ordered by idle age, so the
// retirees are a prefix of it.
func (c *cell) sweepPool() {
	p := &c.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sweeps++
	n := 0
	for n < len(p.idle) && p.idle[n].idleAt+2 <= p.sweeps {
		close(p.idle[n].mail)
		n++
	}
	kept := copy(p.idle, p.idle[n:])
	for i := kept; i < len(p.idle); i++ {
		p.idle[i] = nil
	}
	p.idle = p.idle[:kept]
	p.sweeping = kept > 0
	if p.sweeping {
		c.clock.AfterFunc(poolIdleRetire/2, c.sweepPool)
	}
}

// goWorker runs fn on a goroutine the clock's scheduler knows about.
func (c *cell) goWorker(fn func()) {
	if c.sched != nil {
		c.sched.Go(fn)
		return
	}
	//pqslint:allow rawgo wall-clock-only fallback: this branch runs iff c.sched is nil, i.e. there is no SimClock to enroll the worker with
	go fn()
}

// noopUnpark is park's no-op under the wall clock.
func noopUnpark() {}

// park marks the caller blocked for the SimClock quiescence detector; the
// returned function must run as soon as the blocking select returns.
func (c *cell) park() func() {
	if c.sched == nil {
		return noopUnpark
	}
	return c.sched.Park()
}

// noteRecv records consumption of a tracked message (a reply or a hedge
// fire) under a SimClock.
func (c *cell) noteRecv() {
	if c.sched != nil {
		c.sched.NoteRecv()
	}
}

// gatherSpec parameterizes one gather run.
type gatherSpec struct {
	req    any
	quorum []quorum.ServerID
	spares []quorum.ServerID
	// onOK consumes a successful reply in arrival order (called from the
	// gather goroutine, so no locking is needed). Returning a non-nil error
	// reclassifies the reply as a failure, triggering spare promotion.
	onOK func(id quorum.ServerID, resp any) error
	// decided, when non-nil, is checked after every accepted reply; a true
	// return completes the gather immediately, leaving outstanding calls to
	// the drain.
	decided func(ok, outstanding int) bool
}

// gatherOutcome reports a gather run.
type gatherOutcome struct {
	ok       int
	errs     map[quorum.ServerID]error
	promoted int
	early    bool
	leftover int
	ctxErr   error
	ch       <-chan callReply
}

// gather runs the access engine. It returns when the completion rule is
// decidable, when every dispatched call has resolved, or when ctx is done.
func (c *cell) gather(ctx context.Context, spec gatherSpec) gatherOutcome {
	total := len(spec.quorum) + len(spec.spares)
	ch := make(chan callReply, total)
	timed := c.opts.AdaptiveHedge
	for _, id := range spec.quorum {
		c.dispatch(ctx, id, spec.req, ch, timed)
	}
	out := gatherOutcome{errs: make(map[quorum.ServerID]error), ch: ch}
	outstanding := len(spec.quorum)
	next := 0
	promote := func() bool {
		if next >= len(spec.spares) {
			return false
		}
		c.dispatch(ctx, spec.spares[next], spec.req, ch, timed)
		next++
		outstanding++
		out.promoted++
		c.statPromoted.Add(1)
		return true
	}
	// The hedge delay is fixed for the whole operation: with AdaptiveHedge
	// it is the estimator's current quantile, a function of pooled latency
	// history from past operations only — never of this operation's access
	// set — so hedge firing stays independent of server identity.
	hedgeDelay := c.hedgeDelay()
	var hedge *vtime.Timer
	var hedgeC <-chan time.Time
	if hedgeDelay > 0 && len(spec.spares) > 0 {
		hedge = c.clock.NewTimer(hedgeDelay)
		defer hedge.Stop()
		hedgeC = hedge.C
	}
	// handle consumes one reply; a true return means the completion rule
	// decided and the gather is done.
	handle := func(r callReply) bool {
		outstanding--
		if r.err == nil {
			if timed {
				c.lat.observe(r.id, r.lat)
			}
			if spec.onOK != nil {
				r.err = spec.onOK(r.id, r.resp)
			}
		}
		if r.err != nil {
			out.errs[r.id] = r.err
			promote()
			return false
		}
		out.ok++
		if spec.decided != nil && spec.decided(out.ok, outstanding) {
			out.early = outstanding > 0
			out.leftover = outstanding
			if out.early {
				c.statEarly.Add(1)
			}
			return true
		}
		return false
	}
	inline := c.opts.InlineDispatch && c.sched != nil
	for outstanding > 0 {
		if inline {
			// Inline dispatch already buffered every reply, including the
			// ones a promote() just issued: consume without parking. The
			// empty-channel fallthrough to the parking select is for safety
			// only (it cannot fire while replies are delivered inline).
			select {
			case r := <-ch:
				c.noteRecv()
				if handle(r) {
					return out
				}
				continue
			default:
			}
		}
		unpark := c.park()
		select {
		case r := <-ch:
			unpark()
			c.noteRecv()
			if handle(r) {
				return out
			}
		case <-hedgeC:
			unpark()
			c.noteRecv()
			if promote() {
				hedge.Reset(hedgeDelay)
			} else {
				hedgeC = nil // spares exhausted; stop hedging
			}
		case <-ctx.Done():
			unpark()
			out.leftover = outstanding
			out.ctxErr = ctx.Err()
			return out
		}
	}
	return out
}

// drain consumes the replies still in flight when a gather completed early,
// from a background worker tracked by WaitDrained. onLate, when non-nil,
// sees each late reply (successful or failed) in arrival order. The late
// calls run on the operation's context: a caller that cancels it after the
// operation returns also aborts the stragglers (normal cancellation
// semantics), in which case there is nothing to drain but errors — only
// successful late replies count toward AccessStats.LateReplies.
//
// Late replies deliberately do NOT feed the adaptive-hedge latency
// estimator: the estimator measures the population of replies that
// complete operations, which is what the hedge delay competes with. A
// straggler the hedge routed around is the tail being avoided — folding it
// back in would drag the delay toward that tail until hedging stopped
// firing at all. The loop stays self-correcting in the other direction
// because a gather can never finish before quorum-size replies arrive: if
// the whole cluster slows down, the in-gather samples slow down with it
// and the delay rises.
func (c *cell) drain(out gatherOutcome, onLate func(callReply)) {
	if out.leftover == 0 {
		return
	}
	c.drainWG.Add(1)
	c.goWorker(func() {
		defer c.drainWG.Done()
		for i := 0; i < out.leftover; i++ {
			unpark := c.park()
			r := <-out.ch
			unpark()
			c.noteRecv()
			if r.err == nil {
				c.statLate.Add(1)
			}
			if onLate != nil {
				onLate(r)
			}
		}
	})
}

// pickWithSpares samples one access set plus the configured number of
// spares under the client's strategy. Spare-free picks from an
// InplacePicker-capable system run through the client's buffer freelist, so
// steady-state sampling performs zero allocations; each operation returns
// its buffer with recyclePick when it completes.
func (c *cell) pickWithSpares() (q, spares []quorum.ServerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opts.Spares > 0 {
		if ss, ok := c.opts.System.(quorum.SpareSampler); ok {
			return ss.PickWithSpares(c.rng, c.opts.Spares)
		}
	}
	if ip, ok := c.opts.System.(quorum.InplacePicker); ok {
		return ip.PickInto(c.rng, c.takeBufLocked()), nil
	}
	return c.opts.System.Pick(c.rng), nil
}

// maxPickFree bounds the sampling-buffer freelist; beyond the steady
// concurrency level extra buffers are garbage, not cache.
const maxPickFree = 8

// takeBufLocked pops a sampling buffer from the freelist. c.mu must be held.
func (c *cell) takeBufLocked() []quorum.ServerID {
	if n := len(c.pickFree); n > 0 {
		buf := c.pickFree[n-1]
		c.pickFree = c.pickFree[:n-1]
		return buf[:0]
	}
	return make([]quorum.ServerID, 0, c.opts.System.QuorumSize())
}

// recyclePick returns a completed operation's access-set buffer to the
// freelist. The buffer never escapes the operation: Read and Write copy it
// into the result's Quorum field, so recycling cannot rewrite anything a
// caller holds.
func (c *cell) recyclePick(q []quorum.ServerID) {
	if cap(q) == 0 {
		return
	}
	c.mu.Lock()
	if len(c.pickFree) < maxPickFree {
		c.pickFree = append(c.pickFree, q)
	}
	c.mu.Unlock()
}

// spareCapable reports whether sys can supply spares.
func spareCapable(sys quorum.System) bool {
	_, ok := sys.(quorum.SpareSampler)
	return ok
}

// AccessStats counts straggler-tolerance events over a client's lifetime.
// All counters are cumulative and safe to read concurrently via Stats.
type AccessStats struct {
	// SparesPromoted is the number of spare servers dispatched, whether
	// triggered by member failure or by hedge-delay expiry.
	SparesPromoted uint64
	// EarlyCompletions counts operations that returned at their completion
	// threshold while calls were still outstanding.
	EarlyCompletions uint64
	// LateReplies counts successful replies delivered to the background
	// drain after the operation had already returned. Calls aborted by the
	// caller cancelling the operation's context are not counted.
	LateReplies uint64
	// LateRepairs counts read-repair writes pushed to servers whose replies
	// arrived after an eager read returned.
	LateRepairs uint64
	// ServerDownFastFails counts access-set members failed at dispatch
	// because the transport's circuit breaker reported them down
	// (transport.ErrServerDown): each such member's slot fails at t=0,
	// promoting a spare immediately instead of waiting out the hedge timer.
	ServerDownFastFails uint64

	// LatencySamples, SRTT, RTTVar and HedgeDelay describe the adaptive-
	// hedge latency estimator (zero unless Options.AdaptiveHedge is set):
	// the number of reply latencies observed, the pooled latency EWMA and
	// deviation EWMA, and the hedge delay currently in effect
	// (SRTT + HedgeDeviations·RTTVAR once warmed up).
	LatencySamples uint64
	SRTT           time.Duration
	RTTVar         time.Duration
	HedgeDelay     time.Duration
}

// Stats returns a snapshot of the client's straggler-tolerance counters.
func (c *cell) Stats() AccessStats {
	s := AccessStats{
		SparesPromoted:      c.statPromoted.Load(),
		EarlyCompletions:    c.statEarly.Load(),
		LateReplies:         c.statLate.Load(),
		LateRepairs:         c.statLateRepairs.Load(),
		ServerDownFastFails: c.statServerDown.Load(),
	}
	if c.opts.AdaptiveHedge {
		s.LatencySamples, s.SRTT, s.RTTVar = c.lat.snapshot()
		s.HedgeDelay = c.hedgeDelay()
	}
	return s
}

// WaitDrained blocks until every background drain spawned by completed
// operations has finished. Call it with no operations in flight (e.g. at
// shutdown, or in tests that assert on Stats or goroutine counts).
func (c *cell) WaitDrained() { c.drainWG.Wait() }

// counters live on Client (register.go); typed here for proximity to the
// engine that updates them.
type accessCounters struct {
	statPromoted    atomic.Uint64
	statEarly       atomic.Uint64
	statLate        atomic.Uint64
	statLateRepairs atomic.Uint64
	statServerDown  atomic.Uint64
}
