// Package vtime is the injectable time source every timer-bearing layer of
// the system runs on: the transport's simulated latency, the register
// client's hedge timers and adaptive-hedge latency measurements, the chaos
// harness's slow-lorris delays, and the diffusion round loop all draw their
// notion of "now", their sleeps and their timers from a Clock instead of
// the time package.
//
// Two implementations are provided:
//
//   - WallClock (the default everywhere; see Wall) delegates to the time
//     package, so production binaries — pqsd, pqs-cli — behave exactly as
//     before this package existed.
//   - SimClock is a deterministic virtual-time scheduler for the sim and
//     chaos harnesses: timers fire in virtual-time order with no real
//     waiting, so a run that simulates minutes of latency completes in
//     milliseconds of wall time, and hedge timers — previously the one
//     wall-clock input excluded from the determinism contract — become
//     replayable from the run seed.
//
// # SimClock ordering guarantees
//
// The SimClock scheduler maintains a single virtual now and a 4-ary heap of
// pending timers ordered by (deadline, creation sequence number), both keys
// stored inline in the heap array; re-arming an armed Alarm re-keys its
// entry in place:
//
//  1. Timers fire in nondecreasing virtual-time order. Two timers with the
//     same deadline fire in the order they were created (sequence-number
//     tie-break). A Mark reserves that place when it is taken, not when an
//     Alarm is armed at it: the sequence number is drawn by Clock.Mark, so
//     an owner that queues its events and keeps one Alarm on the oldest
//     fires each where an AfterFunc made at the mark's program point would
//     have fired. Creation order — and therefore the fire order of
//     equal-deadline timers — is deterministic when the creations are
//     ordered by the program itself: issued by a single worker, or
//     separated by a quiescence point. Equal-deadline timers created by
//     concurrently racing workers (e.g. the reply chunks of two servers'
//     read loops woken at one instant) may fire in either order across
//     runs; harness code must therefore never let a RECORDED outcome
//     depend on the relative order of same-instant events. The shipped
//     harnesses satisfy this by construction: completion rules are
//     count-based, value selection is max-timestamp with value-equality at
//     equal stamps, and the latency estimator pools values — so
//     same-instant reordering never changes a recorded history, which is
//     what the determinism regressions assert.
//  2. Virtual time advances only at quiescence: every registered worker
//     goroutine is parked (blocked in a clock sleep, a Chan receive, or a
//     vtime.WaitGroup wait) and every message sent on a Chan has been
//     received. The scheduler then pops the earliest timer, advances now
//     to its deadline instantly, and fires it — exactly one event at a
//     time, each fully processed (the system re-quiesces) before the next
//     fires. The goroutine that does this is the driver: the worker whose
//     park made the world quiescent, or Run's caller when a worker's exit
//     did.
//  3. A fired timer either wakes a clock wait (Sleep, SleepCtx, Settle),
//     its wake-up counting as a tracked message until taken, or runs its
//     callback (AfterFunc, Alarm) on the driver's goroutine, at the
//     quiescent point it fires at: no worker is spawned or counted for it.
//     So the callback must not block or park (no Sleep, no Chan receive or
//     full-buffer send, no WaitGroup wait, no lock a parked worker could
//     hold), nor wait on any worker, which may be the driver itself and
//     then never runs; it may spawn workers with Go, Send on a Chan with
//     room and arm timers, and the driver waits for whatever it woke to
//     park again before it fires the next timer. A panic in a callback
//     unwinds the driver: a worker's goroutine, unless it is Run's caller.
//
// Together 1-3 make every recorded outcome under a SimClock a
// deterministic function of the program's inputs: with seeded randomness,
// two runs produce identical histories — including hedge promotions and
// fault delays, which wall clocks cannot replay.
//
// # Worker discipline
//
// SimClock must know about every goroutine participating in the simulated
// world, or it would advance time while work is still in flight. The rules:
//
//   - Enter the simulation through Run (or spawn with Go); plain go
//     statements are invisible to the scheduler and will deadlock or race
//     the clock.
//   - Block only through the clock: Sleep/SleepCtx, a Chan's Recv/RecvCtx,
//     or a vtime.WaitGroup. There is no other way to park: the tracked-
//     message counts are kept by Chan alone.
//   - Every message sent on a Chan must be received. One nobody takes
//     counts as pending forever and stalls the scheduler; a timer whose
//     fire a worker must see is an Alarm whose callback Sends on the Chan
//     the worker receives from (the register's hedge).
//
// Context cancellation (SleepCtx, RecvCtx) is honored — the waiter returns
// ctx.Err() promptly and never deadlocks — but a cancellation's wake-up is
// invisible to the scheduler, so it is excluded from the determinism
// contract. The shipped harnesses never cancel inside a virtual run.
//
// Run panics on deadlock (all workers parked, nothing pending, no timer to
// fire): in a simulation that situation means a goroutine is blocked on an
// event that can never happen. There is no third state between "tracked" and
// "invisible": a wake-up the scheduler is told about holds virtual time
// until it is consumed, one it is not told about may be overtaken by the
// clock or by this panic, and nothing in between exists.
//
// A driver that changes the world from outside an operation (a fault
// schedule resetting connections) calls Settle before its next step: the
// consequences of the change run on other workers at the same virtual
// instant, and Settle returns only once they have all parked again.
package vtime

import (
	"context"
	"time"
)

// Clock is the time source. Production code receives a Clock and never
// touches the time package for Now/Sleep/timers, which is what lets the
// harnesses substitute virtual time.
type Clock interface {
	// Now returns the current (wall or virtual) time.
	Now() time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// Sleep blocks the calling worker for d.
	Sleep(d time.Duration)
	// SleepCtx blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case. It is the context-aware sleep the transport's
	// latency simulation runs on.
	SleepCtx(ctx context.Context, d time.Duration) error
	// AfterFunc runs fn after d. Under a SimClock fn runs at quiescence on
	// the goroutine driving the clock, so it must not block or park; it may
	// Go, Send on a Chan and arm timers (see the package doc's rule 3). A
	// timer that may be cancelled is an Alarm.
	AfterFunc(d time.Duration, fn func())
	// Mark reserves the place in the fire order a timer armed for d from
	// now would take, for an Alarm to be armed at later (see rule 1).
	Mark(d time.Duration) Mark
}

// Mark is a reserved place in a clock's fire order: an instant, in
// nanoseconds on the clock's own scale, and under a SimClock the creation
// sequence number that breaks ties at it. Marks of one clock compare as
// (instant, sequence); a Mark means nothing to another clock.
type Mark struct {
	at  int64
	seq uint64
}

// NotBefore returns m moved to o's instant if it is earlier, keeping m's
// sequence number: a stream's next event never lands before its last.
func (m Mark) NotBefore(o Mark) Mark {
	if m.at < o.at {
		m.at = o.at
	}
	return m
}

// Alarm is a callback timer its owner makes once and re-arms at Marks, so an
// owner with a queue of events pays one timer for all of them. Under a
// SimClock the callback runs on the goroutine driving the clock (rule 3).
// ArmAt and Stop must be serialized by the owner; under the WallClock a fire
// may still run after Stop, so the callback must check what it is owed.
// Under a SimClock an armed alarm is one entry of the clock's timer heap, and
// re-arming it before it fires moves that entry in place.
type Alarm struct {
	sim  simTimer    // under a SimClock: the timer its heap entry points at
	wall *time.Timer // under the WallClock
}

// NewAlarm returns an idle alarm on clk that runs fn when it goes off.
func NewAlarm(clk Clock, fn func()) *Alarm {
	if sc, ok := clk.(*SimClock); ok {
		return &Alarm{sim: simTimer{clk: sc, fn: fn, idx: -1}}
	}
	t := time.AfterFunc(time.Hour, fn)
	t.Stop()
	return &Alarm{wall: t}
}

// ArmAt arms the alarm to go off at m, in m's place in the fire order,
// replacing any arming not yet fired. A mark already past goes off at once.
// Arm each Mark on one alarm at a time: two armed timers at one Mark would
// tie in the fire order.
func (a *Alarm) ArmAt(m Mark) {
	if a.wall != nil {
		a.wall.Reset(time.Duration(m.at) - time.Since(wallBase))
		return
	}
	c := a.sim.clk
	c.mu.Lock()
	a.sim.firing = false
	if a.sim.idx >= 0 {
		c.timers.rekey(a.sim.idx, m)
	} else {
		c.timers.push(&a.sim, m)
	}
	c.wakeLocked()
	c.mu.Unlock()
}

// Stop disarms the alarm; an idle alarm is left as it is.
func (a *Alarm) Stop() {
	if a.wall != nil {
		a.wall.Stop()
		return
	}
	c := a.sim.clk
	c.mu.Lock()
	a.sim.removeLocked()
	c.mu.Unlock()
}
