package register

import (
	"context"
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
// background drain that can never leak goroutines (every call in flight
// completes exactly once, and the reply channel is buffered for every call
// that can ever be dispatched, so a completion never blocks).
//
// How a call runs is for the layers below to say, per call, and dispatch
// asks them in order; the rule is the same under both clocks and is not an
// option. First TryCall (a transport.TryCaller): a call that cannot park —
// MemNetwork, on a link with no latency, hook or concurrency cap, to a
// handler that does not wait — runs on the caller and its reply is queued
// locally and consumed by the same goroutine, with no channel or wake-up.
// Then Start (a transport.Starter): a call that waits only for a peer or
// the clock — TCPClient on an established connection, MemNetwork on a
// link whose only wait is time — is started on the caller, and its
// completion pushes the reply straight into the gather's channel from
// whatever goroutine settles it (where its reply is read, a timer). Only a
// call both decline gets a worker of its own. None of it looks at anything
// the engine branches on, and the access set is sampled before any of it
// runs.
//
// Promotion preserves the attempt-level ε argument documented on
// RetryingClient and quorum.SpareSampler: a spare is dispatched only when a
// member has observably failed or when a hedge timer — independent of server
// identity — fires, so the access set that completes is the strategy's
// sample conditioned on liveness, the same conditioning a full re-sample
// performs, at a fraction of the latency.
//
// All timers and spawns go through the client's vtime.Clock. Under a
// vtime.SimClock every completion is a tracked message, a worker is a
// registered scheduler worker, and the gather loop parks around its select,
// so hedge firing is part of the deterministic virtual-time order; a
// started call's timed events take their places in that order on the
// gather, in dispatch order.

// callReply carries one server's response through the gather loop. lat is
// the call's round-trip latency, measured only when adaptive hedging needs
// it.
type callReply struct {
	id   quorum.ServerID
	resp any
	err  error
	lat  time.Duration
}

// replyQueue is where one gather's replies arrive. A reply produced on the
// caller — a call TryCall completed, or a member failed at dispatch — is
// appended to local (storage borrowed from the operation's scratch) and
// consumed from there by the same goroutine; ch carries the replies of
// started and handed-off calls and is made when the first such call is
// dispatched, so an operation that waits on nothing makes no channel.
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

// dispatch issues one call: a member the transport already knows is down
// fails here; otherwise TryCall, then Start, then a worker (see the file
// comment).
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
	var start time.Time
	if timed {
		start = c.clock.Now()
	}
	if c.try != nil {
		// The id is passed down, never looked at: whether this call runs
		// here is the link's and the handler's answer.
		r := callReply{id: id}
		var ok bool
		if r.resp, ok, r.err = c.try.TryCall(ctx, id, req); ok {
			if timed {
				r.lat = c.clock.Since(start)
			}
			q.local = append(q.local, r)
			return
		}
	}
	if q.ch == nil {
		q.ch = make(chan callReply, q.total)
	}
	ch := q.ch
	done := func(resp any, err error) {
		r := callReply{id: id, resp: resp, err: err}
		if timed {
			r.lat = c.clock.Since(start)
		}
		c.sched.NoteSend()
		ch <- r
	}
	if c.start != nil && c.start.Start(ctx, id, req, done) {
		return
	}
	c.sched.Go(func() { done(c.opts.Transport.Call(ctx, id, req)) })
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
		// every outstanding call was started or handed off, so q.ch exists.
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
		// Sized for every call the operation can make, so a short-lived
		// client does not grow its first scratch by doubling.
		k := c.opts.System.QuorumSize() + c.opts.Spares
		s = &scratch{local: make([]callReply, 0, k), replies: make([]readReply, 0, k)}
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
	// (SRTT + 4·RTTVAR once warmed up).
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
