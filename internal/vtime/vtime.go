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
// The SimClock scheduler maintains a single virtual now and a heap of
// pending timers ordered by (deadline, creation sequence number):
//
//  1. Timers fire in nondecreasing virtual-time order. Two timers with the
//     same deadline fire in the order they were created (sequence-number
//     tie-break). Creation order — and therefore the fire order of
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
//     goroutine is parked (blocked in a clock sleep, a tracked channel
//     receive, or a vtime.WaitGroup wait) and every tracked message has
//     been consumed (see NoteSend/NoteRecv). The scheduler then pops the
//     earliest timer, advances now to its deadline instantly, and fires it
//     — exactly one event at a time, each fully processed (the system
//     re-quiesces) before the next fires.
//  3. A fired timer either delivers on its channel (counting as a tracked
//     message until received) or runs its AfterFunc callback on the
//     scheduler's own goroutine, at the quiescent point it fires at: no
//     worker is spawned or counted for it. So the callback must not block
//     or park (no Sleep, no Park, no WaitGroup wait, no lock a parked
//     worker could hold); it may spawn workers with Go, send tracked
//     messages and arm timers, and the scheduler waits for whatever it
//     woke to park again before it fires the next timer.
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
//   - Block only through the clock: Sleep/SleepCtx, a Timer channel
//     consumed with NoteRecv, a tracked channel (NoteSend before send,
//     NoteRecv after receive, Park around the blocking receive), or a
//     vtime.WaitGroup.
//   - Timer channel values follow Go 1.23 semantics: Stop and Reset
//     discard an undelivered fire, so callers never drain stale values.
//   - A channel timer must have a consumer selecting on its channel
//     whenever it can fire (the hedge-timer pattern: the timer's channel is
//     a case of the same select that consumes tracked messages). A fire
//     nobody consumes counts as pending forever and stalls the scheduler.
//
// Context cancellation (SleepCtx) is honored — the sleeper returns ctx.Err()
// promptly and never deadlocks — but a cancellation's wake-up is invisible
// to the scheduler, so it is excluded from the determinism contract. The
// shipped harnesses never cancel inside a virtual run.
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
	// NewTimer returns a timer that delivers the clock's now on C after d.
	NewTimer(d time.Duration) *Timer
	// AfterFunc runs fn after d. Under a SimClock fn runs on the scheduler
	// at quiescence, so it must not block or park; it may Go, send tracked
	// messages and arm timers (see the package doc's rule 3).
	AfterFunc(d time.Duration, fn func()) *Timer
}

// Timer is the clock-agnostic timer handle. Exactly one of the backing
// fields is set. Stop and Reset follow Go 1.23 time.Timer semantics: an
// undelivered fire is discarded, so the channel never holds a stale value
// after either call.
type Timer struct {
	// C delivers the fire time.
	C <-chan time.Time

	wall *time.Timer
	sim  *simTimer
}

// Stop cancels the timer, reporting whether it was still pending.
func (t *Timer) Stop() bool {
	if t.wall != nil {
		return t.wall.Stop()
	}
	return t.sim.stop()
}

// Reset re-arms the timer for d from now, reporting whether it was still
// pending.
func (t *Timer) Reset(d time.Duration) bool {
	if t.wall != nil {
		return t.wall.Reset(d)
	}
	return t.sim.reset(d)
}
