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
// A call that cannot park runs on the caller. Whether it can is for the
// layers below to say, per call: when the transport is a
// transport.TryCaller, dispatch offers it the call first, and a call it
// completes — MemNetwork does, on a link with no latency, hook or
// concurrency cap, to a handler that does not wait — has its reply queued
// locally and consumed by the same goroutine, without a worker, a channel
// or a wake-up. Only a declined call is handed to a worker. The rule is the
// same under both clocks and is not an option; it looks at the link and the
// handler, never at anything the engine branches on, and the access set is
// sampled before any of it runs.
//
// Promotion preserves the attempt-level ε argument documented on
// RetryingClient and quorum.SpareSampler: a spare is dispatched only when a
// member has observably failed or when a hedge timer — independent of server
// identity — fires, so the access set that completes is the strategy's
// sample conditioned on liveness, the same conditioning a full re-sample
// performs, at a fraction of the latency.
//
// All timers and spawns go through the client's vtime.Clock. Under either
// clock, handed-off calls run on a stack of idle-retiring worker goroutines,
// each woken through its own mailbox (steady-state operations spawn no
// goroutines at all; see dispatchPool). Under a vtime.SimClock the workers
// are registered scheduler workers, every handoff is a tracked message, the
// idle sweep is a virtual timer and the gather loop parks around its
// select, so hedge firing is part of the deterministic virtual-time order;
// which worker runs a call never changes when it runs.

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

// poolIdleRetire bounds how long an idle dispatch worker lingers for the
// next job before exiting: it retires at the second sweep after it went
// idle, between poolIdleRetire/2 and poolIdleRetire later. Long enough to
// serve back-to-back operations without spawning, short enough that a
// quiescent client leaves no goroutines behind (the leak regressions poll
// well past this) and a torn-down cluster is not kept reachable through its
// client's workers for longer than that. Under a SimClock this is virtual
// time, and SimClock.Run returns only once the last idle worker retired.
const poolIdleRetire = 100 * time.Millisecond

// dispatchPool is the cell's worker pool, the same under either clock: a
// LIFO stack of idle workers, each parked on a private one-slot mailbox.
// Dispatch pops the most recently idle worker — the one whose stack and
// cache lines are warmest — and hands it the job with one direct channel
// send; there is no shared channel for workers to contend on, no select,
// and no per-job timer. Idle workers are retired by a sweep that runs on the
// cell's clock every poolIdleRetire/2 for as long as any worker is idle, and
// not at all otherwise.
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

// call executes one job's transport call: Transport.Call on a worker
// (mayPark), TryCall on the caller otherwise. ok is false only when TryCall
// declined, in which case nothing happened.
func (c *cell) call(j dispatchJob, mayPark bool) (r callReply, ok bool) {
	var start time.Time
	if j.timed {
		start = c.clock.Now()
	}
	r.id = j.id
	if mayPark {
		r.resp, r.err = c.opts.Transport.Call(j.ctx, j.id, j.req)
		ok = true
	} else {
		r.resp, ok, r.err = c.try.TryCall(j.ctx, j.id, j.req)
	}
	if j.timed {
		r.lat = c.clock.Since(start)
	}
	return r, ok
}

// replyQueue is where one gather's replies arrive. A reply produced on the
// caller — a call TryCall completed, or a member failed at dispatch — is
// appended to local (storage borrowed from the operation's scratch) and
// consumed from there by the same goroutine; ch carries the replies of
// handed-off calls and is made when the first call is handed off, so an
// operation that parks nowhere makes no channel.
type replyQueue struct {
	local []callReply
	next  int // local[next:] is unconsumed
	ch    chan callReply
	total int // every call this gather can ever dispatch: ch's buffer
}

// pop takes the next locally queued reply, if there is one.
func (q *replyQueue) pop() (callReply, bool) {
	if q.next == len(q.local) {
		return callReply{}, false
	}
	r := q.local[q.next]
	q.next++
	return r, true
}

// dispatch issues one call. A member the transport already knows is down
// fails here; a call that cannot park runs here, on the caller; anything
// else is handed to the most recently idle pooled worker (spawning a fresh
// one through the clock's Sched only when the idle stack is empty — after
// the first operation warms the pool, steady-state reads and writes spawn
// nothing).
func (c *cell) dispatch(ctx context.Context, id quorum.ServerID, req any, q *replyQueue, timed bool) {
	if c.health != nil && c.health.ServerDown(id) {
		// The transport's circuit breaker already proved this member
		// unreachable: deliver the failure at t=0 so the gather promotes a
		// spare immediately instead of burning hedge budget. The check sits
		// at dispatch — the hedge/promote logic never consults identity, so
		// the ε argument (promotion conditioned on observable failure) is
		// untouched.
		c.statServerDown.Add(1)
		q.local = append(q.local, callReply{id: id, err: transport.ErrServerDown})
		return
	}
	j := dispatchJob{ctx: ctx, id: id, req: req, timed: timed}
	if c.try != nil {
		// The id is passed down, never looked at: whether this call runs
		// here is the link's and the handler's answer.
		if r, ok := c.call(j, false); ok {
			q.local = append(q.local, r)
			return
		}
	}
	if q.ch == nil {
		q.ch = make(chan callReply, q.total)
	}
	j.ch = q.ch
	p := &c.pool
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		c.sched.NoteSend()
		w.mail <- j
		return
	}
	p.mu.Unlock()
	c.sched.Go(func() { c.runPoolWorker(j) })
}

// runPoolWorker is a pooled worker's body: make the call, push itself on the
// idle stack (arming the sweep if none is), deliver the reply, park on its
// mailbox; exit when a sweep closes the mailbox. It is on the stack BEFORE
// the reply goes out, so an operation that has consumed its replies finds
// every worker that served it idle: back-to-back operations re-use them
// all and spawn nothing. (The mailbox is buffered, so a job posted while
// the worker is still delivering waits there.) The reply, the job and the
// sweep's close are tracked messages (free under the wall clock).
func (c *cell) runPoolWorker(j dispatchJob) {
	p := &c.pool
	w := &poolWorker{mail: make(chan dispatchJob, 1)}
	for {
		r, _ := c.call(j, true)
		p.mu.Lock()
		w.idleAt = p.sweeps
		p.idle = append(p.idle, w)
		if !p.sweeping {
			p.sweeping = true
			c.clock.AfterFunc(poolIdleRetire/2, c.sweepPool)
		}
		p.mu.Unlock()
		c.sched.NoteSend()
		j.ch <- r
		unpark := c.sched.Park()
		var ok bool
		j, ok = <-w.mail
		unpark()
		c.sched.NoteRecv()
		if !ok {
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
		c.sched.NoteSend()
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

// gatherSpec parameterizes one gather run. The request is gather's own
// argument, not a field: it travels to workers and so to the heap, and the
// callbacks here would follow it.
type gatherSpec struct {
	quorum  []quorum.ServerID
	spares  []quorum.ServerID
	scratch *scratch // the operation's (see pickWithSpares)
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
	errs     map[quorum.ServerID]error // nil until a call fails
	promoted int
	early    bool
	leftover int
	ctxErr   error
	replies  replyQueue // where the leftover replies are (see drain)
}

// gather runs the access engine: req to every member of spec.quorum, then
// to spares as members fail or the hedge timer fires. It returns when the
// completion rule is decidable, when every dispatched call has resolved, or
// when ctx is done.
func (c *cell) gather(ctx context.Context, req any, spec gatherSpec) (out gatherOutcome) {
	q := &out.replies
	q.total = len(spec.quorum) + len(spec.spares)
	q.local = spec.scratch.local[:0]
	defer func() {
		// The queue's storage goes back to the scratch (grown, perhaps)
		// unless replies are left in it: then the drain owns it.
		spec.scratch.local = nil
		if out.leftover == 0 {
			spec.scratch.local = q.local
		}
	}()
	timed := c.opts.AdaptiveHedge
	for _, id := range spec.quorum {
		c.dispatch(ctx, id, req, q, timed)
	}
	outstanding := len(spec.quorum)
	next := 0
	promote := func() bool {
		if next >= len(spec.spares) {
			return false
		}
		c.dispatch(ctx, spec.spares[next], req, q, timed)
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
			if out.errs == nil {
				out.errs = make(map[quorum.ServerID]error)
			}
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
	for outstanding > 0 {
		// Replies produced on the caller first, including those of spares a
		// promote() just ran: they are already here. Once local is empty
		// every outstanding call is on a worker, so q.ch exists.
		if r, ok := q.pop(); ok {
			if handle(r) {
				return out
			}
			continue
		}
		unpark := c.sched.Park()
		select {
		case r := <-q.ch:
			unpark()
			c.sched.NoteRecv()
			if handle(r) {
				return out
			}
		case <-hedgeC:
			unpark()
			c.sched.NoteRecv()
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
	// Everything resolved, nothing decided. Calls run on the caller never
	// reach the select above, so a dead context shows here or nowhere: an
	// operation that got no replies reports it, not the failures it caused.
	out.ctxErr = ctx.Err()
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
	// Copies, so that only an operation that does leave replies behind pays
	// for moving them to the heap.
	leftover, replies := out.leftover, out.replies
	c.drainWG.Add(1)
	c.sched.Go(func() {
		defer c.drainWG.Done()
		for i := 0; i < leftover; i++ {
			r, ok := replies.pop()
			if !ok {
				unpark := c.sched.Park()
				r = <-replies.ch
				unpark()
				c.sched.NoteRecv()
			}
			if r.err == nil {
				c.statLate.Add(1)
			}
			if onLate != nil {
				onLate(r)
			}
		}
	})
}

// scratch is the memory one operation borrows from its cell and gives back
// when it completes: the buffer its access set is sampled into, the queue
// of replies produced on the caller, and a read's kept replies. Nothing in
// it escapes the operation — Read and Write copy the access set into the
// result's Quorum field and a result's Value points at the replica's bytes,
// not into here — so recycling cannot rewrite anything a caller holds.
type scratch struct {
	pick    []quorum.ServerID
	local   []callReply
	replies []readReply
}

// maxScratchFree bounds the scratch freelist; beyond the steady concurrency
// level extra buffers are garbage, not cache.
const maxScratchFree = 8

// pickWithSpares samples one access set plus the configured number of
// spares under the client's strategy, and lends the operation a scratch,
// which it returns with recycle when it completes. Spare-free picks from an
// InplacePicker-capable system sample into the scratch, so steady-state
// sampling performs zero allocations.
func (c *cell) pickWithSpares() (s *scratch, q, spares []quorum.ServerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		s, c.free[n-1] = c.free[n-1], nil
		c.free = c.free[:n-1]
	} else {
		s = new(scratch)
	}
	if c.opts.Spares > 0 {
		if ss, ok := c.opts.System.(quorum.SpareSampler); ok {
			q, spares = ss.PickWithSpares(c.rng, c.opts.Spares)
			return s, q, spares
		}
	}
	if ip, ok := c.opts.System.(quorum.InplacePicker); ok {
		if s.pick == nil {
			s.pick = make([]quorum.ServerID, 0, c.opts.System.QuorumSize())
		}
		s.pick = ip.PickInto(c.rng, s.pick[:0])
		return s, s.pick, nil
	}
	return s, c.opts.System.Pick(c.rng), nil
}

// recycle returns a completed operation's scratch to the freelist, dropping
// what its reply buffers point at (boxed replies, value bytes) so the
// freelist retains none of it.
func (c *cell) recycle(s *scratch) {
	clear(s.local)
	clear(s.replies)
	c.mu.Lock()
	if len(c.free) < maxScratchFree {
		c.free = append(c.free, s)
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
	// SigChecks and SigReused count the verdicts of dissemination reads on
	// signatures of the right length under a registered writer: SigChecks
	// those that ran ed25519, SigReused those answered from the registry's
	// set of already verified tuples (sv.Registry). With forgers about,
	// SigChecks keeps climbing: a failed check is never remembered.
	SigChecks uint64
	SigReused uint64

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
		SigChecks:           c.statSigChecks.Load(),
		SigReused:           c.statSigReused.Load(),
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
	statSigChecks   atomic.Uint64
	statSigReused   atomic.Uint64
}
