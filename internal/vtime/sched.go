package vtime

import "context"

// Sched exposes the SimClock worker primitives behind a value that is safe
// to use under any Clock: built from a WallClock it is inert — Go is a plain
// go statement and a Chan is a bare buffered channel — so code threaded
// through it behaves identically in production. Built from a SimClock it
// enrolls every spawn in the scheduler's worker registry and every Chan
// message in the tracked-message accounting, which is what lets a subsystem
// full of long-lived goroutines (the TCP data plane: accept loops, read
// loops, one goroutine per request that may park) join the virtual-time
// determinism contract: the scheduler must never advance virtual time while
// a wake-up is in flight (see the SimClock package doc).
type Sched struct {
	sim *SimClock
}

// SchedOf returns the scheduling discipline of c: live when c is a
// SimClock, inert otherwise (including nil).
func SchedOf(c Clock) Sched {
	sc, _ := c.(*SimClock)
	return Sched{sim: sc}
}

// Go spawns fn: as a registered scheduler worker under a SimClock, as a
// plain goroutine otherwise.
func (s Sched) Go(fn func()) {
	if s.sim != nil {
		s.sim.Go(fn)
		return
	}
	go fn()
}

// Chan is a buffered channel whose messages hold virtual time: under a
// SimClock a message sent and not yet received counts as pending, and a
// receiver waiting for one is parked, so the scheduler cannot advance past
// a wake-up in flight. Under the WallClock it is the bare channel. A Chan
// is a small value; copies share the channel. Every message sent must be
// received (a Recv or a RecvCtx that returns it), or virtual time stops.
type Chan[T any] struct {
	sim *SimClock
	ch  chan T
}

// NewChan returns a Chan of capacity n under s's discipline.
func NewChan[T any](s Sched, n int) Chan[T] {
	return Chan[T]{sim: s.sim, ch: make(chan T, n)}
}

// Send queues v, blocking while the buffer is full. It may be called from
// a worker or from a timer callback, whose sends must never block (rule 3):
// size the buffer for every message. When the callback's driver is the
// receiver, the message is in its buffer before it leaves its park.
func (c Chan[T]) Send(v T) {
	if c.sim != nil {
		c.sim.noteSend()
	}
	c.ch <- v
}

// Recv parks the calling worker until a message is there, and takes it.
func (c Chan[T]) Recv() T {
	if c.sim == nil {
		return <-c.ch
	}
	c.sim.park()
	v := <-c.ch
	c.sim.unparkRecv()
	return v
}

// RecvCtx is Recv, abandoned when ctx is done: it then returns ctx.Err()
// and takes nothing, so a message sent later is left for the next receive.
// A cancellation is outside the determinism contract unless it originates
// inside the simulated world (as SleepCtx's).
func (c Chan[T]) RecvCtx(ctx context.Context) (T, error) {
	if c.sim != nil {
		c.sim.park()
	}
	select {
	case v := <-c.ch:
		if c.sim != nil {
			c.sim.unparkRecv()
		}
		return v, nil
	case <-ctx.Done():
		if c.sim != nil {
			c.sim.unpark()
		}
		var zero T
		return zero, ctx.Err()
	}
}
