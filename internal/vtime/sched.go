package vtime

// Sched exposes the SimClock worker primitives (Go, Park, NoteSend,
// NoteRecv) behind a value that is safe to use under any Clock: built from
// a WallClock it is inert — Go is a plain go statement, Park a no-op, the
// note methods free — so code threaded through it behaves identically in
// production. Built from a SimClock it enrolls every spawn in the
// scheduler's worker registry and every channel handoff in the tracked-
// message accounting, which is what lets a subsystem full of long-lived
// goroutines (the TCP data plane: accept loops, read loops, one goroutine
// per request that may park) join the virtual-time determinism contract.
//
// The discipline for a tracked handoff over a channel ch:
//
//	sender:                         receiver:
//	  s.NoteSend()                    unpark := s.Park()
//	  ch <- v                         v := <-ch
//	                                  unpark()
//	                                  s.NoteRecv()
//
// A close(ch) that wakes a parked receiver must be preceded by one
// NoteSend per receiver that will observe it, because the receiver's
// NoteRecv is unconditional. See the SimClock package doc for why: the
// scheduler must never advance virtual time while a wake-up is in flight.
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

// noopUnpark keeps Park allocation-free in wall mode.
func noopUnpark() {}

// Park marks the calling worker blocked on a tracked handoff; call the
// returned function the moment the blocking operation returns.
func (s Sched) Park() func() {
	if s.sim == nil {
		return noopUnpark
	}
	return s.sim.Park()
}

// NoteSend records that a tracked message is about to be sent.
func (s Sched) NoteSend() {
	if s.sim != nil {
		s.sim.NoteSend()
	}
}

// NoteRecv records consumption of a tracked message (after unparking).
func (s Sched) NoteRecv() {
	if s.sim != nil {
		s.sim.NoteRecv()
	}
}
