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
// background drain that can never leak goroutines (every call in flight
// completes exactly once, and the reply channel is buffered for every call
// that can ever be dispatched and one hedge fire, so a completion never
// blocks).
//
// How a call runs is for the transport to say, per call: dispatch makes one
// Start (transport.Starter; a Call-only transport is adapted once, by
// transport.StarterOf) and the rule is the same under both clocks and is
// not an option. A call that nothing can park — MemNetwork, on a link with
// no latency, hook or concurrency cap, to a handler that does not wait —
// completes before Start returns, and its reply is queued locally and
// consumed by the same goroutine, with no channel or wake-up. Any other
// call is pending: its reply reaches the operation's reply queue, the
// transport.Sink, which pushes it into the gather's channel from whatever
// goroutine settles it (where its reply is read, a timer, a worker the
// transport started). None of it looks at anything the engine branches on,
// and the access set is sampled before any of it runs.
//
// Promotion preserves the attempt-level ε argument documented on
// RetryingClient and quorum.SpareSampler: a spare is dispatched only when a
// member has observably failed or when a hedge alarm — independent of server
// identity — fires, so the access set that completes is the strategy's
// sample conditioned on liveness, the same conditioning a full re-sample
// performs, at a fraction of the latency.
//
// All timers and spawns go through the client's vtime.Clock. Replies and
// the hedge alarm's fires arrive on one vtime.Chan, so under a
// vtime.SimClock every completion is a tracked message, a worker is a
// registered scheduler worker, and the gather loop parks in its receive,
// so hedge firing is part of the deterministic virtual-time order; a
// started call's timed events take their places in that order on the
// gather, in dispatch order.

// callReply carries one server's response through the gather loop, or the
// hedge alarm's fire (hedge set, nothing else). lat is the call's round-trip
// latency, measured only when adaptive hedging needs it.
type callReply struct {
	id    quorum.ServerID
	resp  any
	err   error
	lat   time.Duration
	hedge bool
}

// replyQueue is where one gather's replies arrive, and the sink of its
// pending calls. A reply produced on the caller — a call Start completed, or
// a member failed at dispatch — is appended to local and consumed there by
// the same goroutine; ch carries pending calls' replies and the hedge's
// fires, made by whichever needs it first. Tag i is the call to the i-th
// of quorum then spares. What Complete reads is written before the first
// dispatch and not again until the drain is done.
type replyQueue struct {
	local          []callReply
	next           int // local[next:] is unconsumed
	quorum, spares []quorum.ServerID
	starts         []time.Time // by tag, dispatch times; nil unless adaptive hedging times calls
	clock          vtime.Clock
	sched          vtime.Sched

	mu   sync.Mutex // guards making ch
	ch   vtime.Chan[callReply]
	size int // ch's buffer (every call, plus one hedge fire); 0: ch is not reused
}

// member is the server the call with tag goes to.
func (q *replyQueue) member(tag int) quorum.ServerID {
	if tag < len(q.quorum) {
		return q.quorum[tag]
	}
	return q.spares[tag-len(q.quorum)]
}

// since is how long ago the call with tag was dispatched, if calls are timed.
func (q *replyQueue) since(tag int) time.Duration {
	if q.starts == nil {
		return 0
	}
	return q.clock.Since(q.starts[tag])
}

// channel returns ch, making it on first use.
func (q *replyQueue) channel() vtime.Chan[callReply] {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ch == (vtime.Chan[callReply]{}) {
		q.ch = vtime.NewChan[callReply](q.sched, q.size)
	}
	return q.ch
}

// Complete implements transport.Sink: a pending call's reply goes to the
// channel, whose buffer holds every call the gather can make, so it never
// blocks.
func (q *replyQueue) Complete(tag int, resp any, err error) {
	q.channel().Send(callReply{id: q.member(tag), resp: resp, err: err, lat: q.since(tag)})
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

// dispatch issues the call with tag: a member the transport already knows
// is down fails here; otherwise the transport starts it (see the file
// comment).
func (c *cell) dispatch(ctx context.Context, req any, q *replyQueue, tag int) {
	id := q.member(tag)
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
	if q.starts != nil {
		q.starts[tag] = c.clock.Now()
	}
	// The id is passed down, never looked at: whether this call completes
	// here is the link's and the handler's answer.
	if resp, err, pending := c.start.Start(ctx, id, req, q, tag); !pending {
		q.local = append(q.local, callReply{id: id, resp: resp, err: err, lat: q.since(tag)})
	}
}

// gatherSpec parameterizes one gather run. The request and the scratch,
// which holds the access set, are gather's own arguments, not fields: they
// travel to the transport and so to the heap, and the callbacks here would
// follow them.
type gatherSpec struct {
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
}

// gather runs the access engine: req to every member of s's access set,
// then to its spares as members fail or the hedge alarm fires. It returns when the
// completion rule is decidable, when every dispatched call has resolved, or
// when ctx is done.
func (c *cell) gather(ctx context.Context, req any, s *scratch, spec gatherSpec) (out gatherOutcome) {
	q := s.queue(c)
	for i := range q.quorum {
		c.dispatch(ctx, req, q, i)
	}
	outstanding := len(q.quorum)
	next := 0
	promote := func() bool {
		if next >= len(q.spares) {
			return false
		}
		c.dispatch(ctx, req, q, len(q.quorum)+next)
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
	// Its alarm is re-armed only once its fire has been taken, so at most
	// one fire is ever outstanding and ch's extra slot holds it: the
	// callback never blocks. One that races Stop under the wall clock is
	// left to the drain, which skips it, or lands later on a channel no
	// other operation gets (size 0).
	hedgeDelay := c.hedgeDelay()
	var hedge *vtime.Alarm
	if hedgeDelay > 0 && len(q.spares) > 0 {
		ch := q.channel()
		q.size = 0
		hedge = vtime.NewAlarm(c.clock, func() { ch.Send(callReply{hedge: true}) })
		hedge.ArmAt(c.clock.Mark(hedgeDelay))
		defer hedge.Stop()
	}
	// handle consumes one reply; a true return means the completion rule
	// decided and the gather is done.
	handle := func(r callReply) bool {
		outstanding--
		if r.err == nil {
			if q.starts != nil {
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
		// every outstanding call is pending.
		r, ok := q.pop()
		if !ok {
			var err error
			if r, err = q.channel().RecvCtx(ctx); err != nil {
				out.leftover = outstanding
				out.ctxErr = err
				return out
			}
		}
		if r.hedge {
			if promote() { // once spares run out, hedging stops
				hedge.ArmAt(c.clock.Mark(hedgeDelay))
			}
		} else if handle(r) {
			return out
		}
	}
	// Everything resolved, nothing decided. Calls run on the caller never
	// reach the receive above, so a dead context shows here or nowhere: an
	// operation that got no replies reports it, not the failures it caused.
	out.ctxErr = ctx.Err()
	return out
}

// drain consumes the replies still in flight when a gather completed early,
// from a background worker tracked by WaitDrained, then returns s to the
// pool (at once, with nothing in flight); it is the operation's last use
// of s.
// onLate, when non-nil, sees each late reply (successful or failed) in
// arrival order. The late calls run on the operation's context: a caller
// that cancels it after the operation returns also aborts the stragglers
// (normal cancellation semantics), in which case there is nothing to drain
// but errors — only successful late replies count toward
// AccessStats.LateReplies. A hedge fire among them (one that raced the
// gather's Stop) is taken and skipped.
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
func (c *cell) drain(s *scratch, out gatherOutcome, onLate func(callReply)) {
	if out.leftover == 0 {
		recycle(s)
		return
	}
	leftover := out.leftover
	c.drainWG.Add(1)
	c.sched.Go(func() {
		defer c.drainWG.Done()
		q := &s.q
		for i := 0; i < leftover; i++ {
			r, ok := q.pop()
			for !ok || r.hedge { // a stray hedge fire is not a reply
				r, ok = q.channel().Recv(), true
			}
			if r.err == nil {
				c.statLate.Add(1)
			}
			if onLate != nil {
				onLate(r)
			}
		}
		recycle(s)
	})
}

// scratch is the memory one operation borrows from scratchPool and gives
// back when it and its drain complete: the buffer its access set is
// sampled into, its reply queue and a read's kept replies. Nothing in it
// escapes the operation — Read and Write copy the access set into the
// result's Quorum field and a result's Value points at the replica's bytes,
// not into here — so recycling cannot rewrite anything a caller holds.
type scratch struct {
	pick    []quorum.ServerID
	q       replyQueue
	replies []readReply
}

// scratchPool holds the scratch of completed operations for every cell in
// the process, so a client that has finished holds none. A scratch moves
// between cells, and so between quorum sizes, hedging rules and clocks:
// pickWithSpares and queue reset what belonged to its last borrower.
var scratchPool = &sync.Pool{New: func() any { return new(scratch) }}

// queue readies the scratch's reply queue for c's gather, resetting what
// belonged to its last borrower. It keeps the last channel if large enough,
// made under c's scheduler, and no hedge alarm was armed on it; dispatch
// times are kept only for adaptive hedging.
func (s *scratch) queue(c *cell) *replyQueue {
	q := &s.q
	calls := len(q.quorum) + len(q.spares)
	if q.size < calls+1 || q.sched != c.sched {
		q.size, q.ch = calls+1, vtime.Chan[callReply]{}
	}
	q.clock, q.sched = c.clock, c.sched
	if c.opts.AdaptiveHedge {
		q.starts = append(q.starts[:0], make([]time.Time, calls)...)
	} else {
		q.starts = nil
	}
	q.local, q.next = q.local[:0], 0
	return q
}

// pickWithSpares lends the operation a scratch from the pool holding one
// access set plus the configured number of spares, sampled under the
// client's strategy (s.q.quorum, s.q.spares); its drain recycles it. Its
// buffers are grown once for every call the operation can make, so a
// short-lived client does not grow them by doubling. Spare-free picks from
// an InplacePicker-capable system sample into the scratch, so steady-state
// sampling performs zero allocations.
func (c *cell) pickWithSpares() *scratch {
	s := scratchPool.Get().(*scratch)
	q := &s.q
	qs := c.opts.System.QuorumSize()
	if k := qs + c.opts.Spares; cap(q.local) < k || cap(s.replies) < k {
		q.local, s.replies = make([]callReply, 0, k), make([]readReply, 0, k)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	q.spares = nil
	if ss, ok := c.opts.System.(quorum.SpareSampler); ok && c.opts.Spares > 0 {
		q.quorum, q.spares = ss.PickWithSpares(c.rng, c.opts.Spares)
	} else if ip, ok := c.opts.System.(quorum.InplacePicker); ok {
		if cap(s.pick) < qs {
			s.pick = make([]quorum.ServerID, 0, qs)
		}
		s.pick = ip.PickInto(c.rng, s.pick[:0])
		q.quorum = s.pick
	} else {
		q.quorum = c.opts.System.Pick(c.rng)
	}
	return s
}

// recycle returns a completed operation's scratch to the pool, dropping
// what its reply buffers point at (boxed replies, value bytes) so the pool
// retains none of it.
func recycle(s *scratch) {
	clear(s.q.local)
	clear(s.replies)
	scratchPool.Put(s)
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
	// promoting a spare immediately instead of waiting out the hedge delay.
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
// operations has finished, with the late repair pushes it started. Call it
// with no operations in flight (e.g. at shutdown, or in tests that assert on
// Stats or goroutine counts).
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
