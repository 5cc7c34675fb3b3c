package vtime

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestSimTimersFireInVirtualOrder locks in guarantee 1 of the package doc:
// timers fire in nondecreasing deadline order, ties broken by creation
// sequence, regardless of creation order.
func TestSimTimersFireInVirtualOrder(t *testing.T) {
	clk := NewSimClock()
	var order []int
	clk.Run(func() {
		done := NewWaitGroup(clk)
		fire := func(i int, d time.Duration) {
			done.Add(1)
			clk.AfterFunc(d, func() {
				order = append(order, i)
				done.Done()
			})
		}
		fire(3, 30*time.Millisecond)
		fire(1, 10*time.Millisecond)
		fire(2, 10*time.Millisecond) // same deadline as 1; created later
		fire(4, 40*time.Millisecond)
		done.Wait()
	})
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if got := clk.Elapsed(); got != 40*time.Millisecond {
		t.Fatalf("elapsed %v, want 40ms", got)
	}
}

// TestSimSleepAdvancesInstantly proves the speedup mechanism: simulated
// hours complete in wall milliseconds.
func TestSimSleepAdvancesInstantly(t *testing.T) {
	clk := NewSimClock()
	start := time.Now()
	clk.Run(func() {
		for i := 0; i < 100; i++ {
			clk.Sleep(time.Hour)
		}
	})
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("100 simulated hours took %v of wall time", wall)
	}
	if got := clk.Elapsed(); got != 100*time.Hour {
		t.Fatalf("elapsed %v, want 100h", got)
	}
}

// TestSimConcurrentSleepers checks quiescence detection with many workers:
// time advances only when all are parked, and each wakes at its own
// virtual deadline.
func TestSimConcurrentSleepers(t *testing.T) {
	clk := NewSimClock()
	var woke [8]time.Duration
	clk.Run(func() {
		wg := NewWaitGroup(clk)
		for i := 0; i < 8; i++ {
			i := i
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				clk.Sleep(time.Duration(i+1) * time.Millisecond)
				woke[i] = clk.Now().Sub(simEpoch)
			})
		}
		wg.Wait()
	})
	for i, d := range woke {
		if d != time.Duration(i+1)*time.Millisecond {
			t.Fatalf("worker %d woke at %v", i, d)
		}
	}
}

// TestSimSettle: Settle returns once every other worker has parked or
// finished — a chain of tracked handoffs runs to its end first — without
// moving the clock, so a timer due later has not fired.
func TestSimSettle(t *testing.T) {
	clk := NewSimClock()
	clk.Run(func() {
		clk.Sleep(3 * time.Millisecond)
		var later atomic.Bool
		clk.AfterFunc(time.Millisecond, func() { later.Store(true) })
		const hops = 20
		var reached atomic.Int64
		ch := NewChan[int](SchedOf(clk), 1)
		for i := 0; i < hops; i++ {
			clk.Go(func() {
				n := ch.Recv()
				reached.Add(1)
				if n+1 < hops {
					ch.Send(n + 1)
				}
			})
		}
		ch.Send(0)
		clk.Settle()
		if got := reached.Load(); got != hops {
			t.Errorf("Settle returned with the handoff chain at hop %d of %d", got, hops)
		}
		if later.Load() || clk.Elapsed() != 3*time.Millisecond {
			t.Errorf("Settle moved the clock: elapsed %v, later timer fired %v", clk.Elapsed(), later.Load())
		}
	})
}

// TestSimTrackedChannelHandoff exercises the Chan protocol gather-style
// loops use: a producer sleeping virtual latency hands results to a parked
// consumer, and a hedge-style alarm, whose fire is one more message on the
// same Chan, fires only when the producer is slower than the hedge deadline.
func TestSimTrackedChannelHandoff(t *testing.T) {
	for _, tc := range []struct {
		name      string
		latency   time.Duration
		wantHedge bool
	}{
		{"fast-producer", 2 * time.Millisecond, false},
		{"slow-producer", 20 * time.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := NewSimClock()
			hedged := false
			clk.Run(func() {
				ch := NewChan[int](SchedOf(clk), 2)
				clk.Go(func() {
					clk.Sleep(tc.latency)
					ch.Send(42)
				})
				hedge := NewAlarm(clk, func() { ch.Send(-1) })
				hedge.ArmAt(clk.Mark(10 * time.Millisecond))
				defer hedge.Stop()
				for {
					switch v := ch.Recv(); v {
					case -1:
						hedged = true
					case 42:
						return
					default:
						t.Errorf("got %d", v)
						return
					}
				}
			})
			if hedged != tc.wantHedge {
				t.Fatalf("hedged=%v, want %v", hedged, tc.wantHedge)
			}
		})
	}
}

// TestChanHoldsTheClock: a message on a Chan holds virtual time until it is
// taken; a cancelled RecvCtx takes nothing; the wall clock's Chan is the
// bare channel.
func TestChanHoldsTheClock(t *testing.T) {
	t.Run("in-flight", func(t *testing.T) {
		clk := NewSimClock()
		gate := make(chan struct{})
		var fired atomic.Bool
		var sawFired bool
		var tookAt time.Duration
		done := make(chan struct{})
		go func() {
			defer close(done)
			clk.Run(func() {
				ch := NewChan[int](SchedOf(clk), 1)
				clk.AfterFunc(time.Millisecond, func() { fired.Store(true) })
				clk.Go(func() {
					// Parked as the scheduler sees it, and not receiving: only
					// the message in flight keeps the clock where it is.
					clk.park()
					<-gate
					clk.unpark()
					sawFired = fired.Load()
					ch.Recv()
					tookAt = clk.Elapsed()
				})
				ch.Send(1)
				clk.Sleep(2 * time.Millisecond)
			})
		}()
		time.Sleep(20 * time.Millisecond) // wall time for a wrong scheduler to fire
		close(gate)
		<-done
		if sawFired || tookAt != 0 || !fired.Load() {
			t.Fatalf("fired before the receive %v, received at %v, fired at all %v; want false, 0s, true",
				sawFired, tookAt, fired.Load())
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		clk := NewSimClock()
		var err error
		var got int
		clk.Run(func() {
			s := SchedOf(clk)
			ch, ack := NewChan[int](s, 1), NewChan[struct{}](s, 1)
			ctx, cancel := context.WithCancel(context.Background())
			// The ack holds the clock until the cancelled receiver is back.
			clk.AfterFunc(time.Millisecond, func() {
				cancel()
				ack.Send(struct{}{})
			})
			_, err = ch.RecvCtx(ctx)
			ack.Recv()
			clk.Go(func() { ch.Send(7) })
			got = ch.Recv()
			clk.Settle()
		})
		if err != context.Canceled || got != 7 || clk.Elapsed() != time.Millisecond {
			t.Fatalf("RecvCtx = %v, next Recv = %d, elapsed %v; want context.Canceled, 7, 1ms", err, got, clk.Elapsed())
		}
	})
	t.Run("wall-allocs", func(t *testing.T) {
		ch := NewChan[int](SchedOf(Wall()), 1)
		if n := testing.AllocsPerRun(100, func() { ch.Send(1); ch.Recv() }); n != 0 {
			t.Fatalf("a WallClock Send + Recv allocates %v objects, want 0", n)
		}
	})
}

// TestSimSleepCtxCancel checks that a context cancelled from inside the
// simulated world aborts a virtual sleep. Cancellation is outside the
// determinism contract (the wake is invisible to the scheduler), but the
// observable outcome — a prompt ctx.Err() — must hold either way.
func TestSimSleepCtxCancel(t *testing.T) {
	clk := NewSimClock()
	var err error
	clk.Run(func() {
		ctx, cancel := context.WithCancel(context.Background())
		clk.AfterFunc(5*time.Millisecond, cancel)
		err = clk.SleepCtx(ctx, time.Hour)
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSimTimerStopReset checks an alarm's Stop cancels a pending arming for
// good and a second ArmAt moves a pending arming to its new mark.
func TestSimTimerStopReset(t *testing.T) {
	clk := NewSimClock()
	var fired []time.Duration
	clk.Run(func() {
		a := NewAlarm(clk, func() { fired = append(fired, clk.Elapsed()) })
		a.ArmAt(clk.Mark(time.Millisecond))
		a.Stop()
		// The stopped alarm must not go off: sleep past its old mark.
		clk.Sleep(2 * time.Millisecond)

		a.ArmAt(clk.Mark(time.Millisecond))
		a.ArmAt(clk.Mark(3 * time.Millisecond))
		clk.Sleep(time.Hour)
	})
	if fmt.Sprint(fired) != "[5ms]" {
		t.Errorf("alarm went off at %v, want [5ms] (2ms + re-armed 3ms)", fired)
	}
}

// TestSimDeadlockPanics locks in the failure mode: a worker blocked on an
// event that can never happen panics the run instead of hanging.
func TestSimDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked run did not panic")
		}
	}()
	clk := NewSimClock()
	clk.Run(func() {
		NewChan[struct{}](SchedOf(clk), 1).Recv() // never satisfied, no timer pending
	})
}

// TestSimWaitGroupReleaseOrdering checks the scheduler does not advance
// time between a WaitGroup release and the waiter resuming: the waiter
// observes the virtual time of the final Done, not of any later timer.
func TestSimWaitGroupReleaseOrdering(t *testing.T) {
	clk := NewSimClock()
	var at time.Duration
	clk.Run(func() {
		wg := NewWaitGroup(clk)
		wg.Add(1)
		clk.Go(func() {
			clk.Sleep(3 * time.Millisecond)
			wg.Done()
		})
		// A later alarm the scheduler could wrongly jump to.
		lure := NewAlarm(clk, func() { t.Error("the lure went off") })
		lure.ArmAt(clk.Mark(time.Hour))
		defer lure.Stop()
		wg.Wait()
		at = clk.Elapsed()
	})
	if at != 3*time.Millisecond {
		t.Fatalf("waiter resumed at %v, want 3ms", at)
	}
}

// TestWallClockBasics smoke-tests the production implementation.
func TestWallClockBasics(t *testing.T) {
	c := Wall()
	if Or(nil) != c {
		t.Fatal("Or(nil) is not the wall clock")
	}
	start := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(start) <= 0 {
		t.Fatal("Since went backwards")
	}
	if err := c.SleepCtx(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("SleepCtx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.SleepCtx(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("cancelled SleepCtx: %v", err)
	}
	var fired atomic.Bool
	c.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	deadline := time.Now().Add(5 * time.Second)
	for !fired.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !fired.Load() {
		t.Fatal("AfterFunc never fired")
	}
}

// TestSimDeterministicReplay runs the same mixed workload twice and
// requires identical event traces — the property the chaos and sim
// harnesses build their determinism contract on.
func TestSimDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		clk := NewSimClock()
		var trace []time.Duration
		clk.Run(func() {
			wg := NewWaitGroup(clk)
			ch := NewChan[time.Duration](SchedOf(clk), 16)
			for i := 0; i < 5; i++ {
				i := i
				wg.Add(1)
				clk.Go(func() {
					defer wg.Done()
					clk.Sleep(time.Duration(7*i%5+1) * time.Millisecond)
					ch.Send(clk.Elapsed())
				})
			}
			for n := 0; n < 5; n++ {
				trace = append(trace, ch.Recv())
			}
			wg.Wait()
		})
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// TestSimAfterFuncRunsOnTheScheduler: a fired callback is not a worker — the
// registry holds exactly the workers that were running before it fired.
func TestSimAfterFuncRunsOnTheScheduler(t *testing.T) {
	clk := NewSimClock()
	var during, before int
	clk.Run(func() {
		clk.mu.Lock()
		before = clk.workers
		clk.mu.Unlock()
		clk.AfterFunc(time.Millisecond, func() {
			clk.mu.Lock()
			during = clk.workers
			clk.mu.Unlock()
		})
		clk.Sleep(2 * time.Millisecond)
	})
	if before != 1 || during != before {
		t.Fatalf("workers during the callback = %d, want %d (the root alone)", during, before)
	}
}

// TestSimCallbackSpawnsAndSends: a callback may spawn a worker and hand it a
// tracked message; the scheduler waits for that worker to park or finish
// before it fires the next timer, and Run returns once it is done.
func TestSimCallbackSpawnsAndSends(t *testing.T) {
	clk := NewSimClock()
	var got int
	var at time.Duration
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		clk.Run(func() {
			ch := NewChan[int](SchedOf(clk), 1)
			done := NewWaitGroup(clk)
			done.Add(1)
			clk.AfterFunc(time.Millisecond, func() {
				clk.Go(func() {
					defer done.Done()
					v := ch.Recv()
					clk.Sleep(time.Millisecond)
					got, at = v, clk.Elapsed()
				})
				ch.Send(7)
			})
			done.Wait()
		})
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after a callback spawned a worker and sent it a tracked message")
	}
	if got != 7 || at != 2*time.Millisecond {
		t.Fatalf("spawned worker got %d at %v, want 7 at 2ms", got, at)
	}
}

// TestSimFireOrderWithCallbacks: callbacks and alarms share one (deadline,
// seq) order, and a timer a callback arms for "now" fires after the timers
// already due at that instant, not before — also after an alarm whose fire
// is a message a worker takes before the scheduler moves on.
func TestSimFireOrderWithCallbacks(t *testing.T) {
	clk := NewSimClock()
	var order []string
	clk.Run(func() {
		done := NewWaitGroup(clk)
		note := func(s string) func() {
			done.Add(1)
			return func() {
				order = append(order, s)
				done.Done()
			}
		}
		zero := note("a+0")
		clk.AfterFunc(10*time.Millisecond, func() {
			order = append(order, "a")
			clk.AfterFunc(0, zero)
		})
		clk.AfterFunc(10*time.Millisecond, note("b"))
		ch := NewChan[struct{}](SchedOf(clk), 1)
		NewAlarm(clk, func() { ch.Send(struct{}{}) }).ArmAt(clk.Mark(10 * time.Millisecond))
		clk.AfterFunc(5*time.Millisecond, note("early"))
		ch.Recv()
		order = append(order, "chan")
		done.Wait()
	})
	want := "early a b chan a+0"
	if got := fmt.Sprint(order); got != "["+want+"]" {
		t.Fatalf("fired %v, want [%s]", got, want)
	}
}

// TestSimWaitAllocs: a park/unpark pair allocates nothing, and a virtual
// sleep allocates its timer and that timer's channel, nothing more.
func TestSimWaitAllocs(t *testing.T) {
	clk := NewSimClock()
	var park, sleep float64
	clk.Run(func() {
		// A worker the scheduler sees as running, so it does not act on the
		// root's bare parks below.
		hold := make(chan struct{})
		clk.Go(func() { <-hold })
		park = testing.AllocsPerRun(100, func() {
			clk.park()
			clk.unpark()
		})
		close(hold)
		sleep = testing.AllocsPerRun(100, func() { clk.Sleep(time.Millisecond) })
	})
	if park != 0 {
		t.Errorf("park + unpark allocates %v objects, want 0", park)
	}
	if sleep > 2 {
		t.Errorf("Sleep allocates %v objects, want <= 2", sleep)
	}
}

// fireScript is what TestMarkKeepsTheFireOrder plays: events on two
// streams (FIFO, each due no earlier than the one before it), on one
// deadline queue (a fixed delay, so due in creation order, and cancellable)
// and plain timers.
type fireScript interface {
	stream(i int, label string, d time.Duration)
	deadline(label string)
	cancel(label string)
	plain(label string, d time.Duration)
	stopIdle() // Stop an alarm that was never armed
}

// scriptDeadline is the deadline queue's fixed delay.
const scriptDeadline = 4 * time.Millisecond

// playFireScript is the script: at 5 ms both streams, the deadline queue and
// two plain timers tie, a cancelled deadline at the head of its queue leaves
// a no-op fire behind, a cancelled one in the middle is pruned when it comes
// up, a stream event asked for before its predecessor's instant lands at it,
// and the first event to fire adds three more at its own instant.
func playFireScript(clk *SimClock, s fireScript) {
	ms := time.Millisecond
	s.stream(0, "a", 5*ms)
	s.plain("x", 5*ms)
	s.stopIdle()
	s.stream(1, "b", 5*ms)
	s.stream(0, "c", 3*ms) // lands at a's 5 ms, after it
	s.stream(0, "e", 8*ms)
	clk.Sleep(ms)
	s.deadline("d1")
	s.plain("y", 4*ms)
	s.deadline("d2")
	clk.Sleep(ms)
	s.cancel("d1") // the head: pruned, and its fire is a no-op
	s.deadline("d3")
	s.deadline("d4")
	s.plain("z", 6*ms)
	clk.Sleep(ms)
	s.cancel("d3") // behind the live d2: pruned once d2 has fired
	clk.Sleep(time.Second)
}

// then is what an event does when it fires, besides being logged.
func then(s fireScript, label string) {
	if label == "a" {
		s.stream(1, "a1", 0)
		s.plain("a2", 0)
		s.deadline("a3")
	}
}

// timerScript plays the script with a timer per event: an AfterFunc, or
// for a cancellable deadline an Alarm of its own, armed at once.
type timerScript struct {
	clk    *SimClock
	log    []string
	last   [2]time.Duration
	timers map[string]*Alarm
}

func (s *timerScript) fire(label string) func() {
	return func() {
		s.log = append(s.log, fmt.Sprintf("%s@%v", label, s.clk.Elapsed()))
		then(s, label)
	}
}

func (s *timerScript) stream(i int, label string, d time.Duration) {
	now := s.clk.Elapsed()
	s.last[i] = max(now+d, s.last[i])
	s.clk.AfterFunc(s.last[i]-now, s.fire(label))
}
func (s *timerScript) deadline(label string) {
	s.timers[label] = NewAlarm(s.clk, s.fire(label))
	s.timers[label].ArmAt(s.clk.Mark(scriptDeadline))
}
func (s *timerScript) cancel(label string)                 { s.timers[label].Stop() }
func (s *timerScript) plain(label string, d time.Duration) { s.clk.AfterFunc(d, s.fire(label)) }
func (s *timerScript) stopIdle()                           {}

// markEntry is a queued event and its reserved place.
type markEntry struct {
	label string
	m     Mark
}

// markScript plays the script with marks: one alarm per stream and one for
// the deadline queue, each armed at its oldest entry.
type markScript struct {
	t       *testing.T
	clk     *SimClock
	log     []string
	streams [2]struct {
		q     []markEntry
		last  Mark
		alarm *Alarm
	}
	dq      []markEntry
	settled map[string]bool
	armed   Mark
	set     bool
	dalarm  *Alarm
	noops   int
}

func newMarkScript(t *testing.T, clk *SimClock) *markScript {
	s := &markScript{t: t, clk: clk, settled: map[string]bool{}}
	for i := range s.streams {
		st := &s.streams[i]
		st.alarm = NewAlarm(clk, func() {
			e := st.q[0]
			st.q = st.q[1:]
			if len(st.q) > 0 {
				st.alarm.ArmAt(st.q[0].m)
			}
			s.fire(e.label)
		})
	}
	s.dalarm = NewAlarm(clk, s.expire)
	return s
}

func (s *markScript) fire(label string) {
	s.log = append(s.log, fmt.Sprintf("%s@%v", label, s.clk.Elapsed()))
	then(s, label)
}

func (s *markScript) stream(i int, label string, d time.Duration) {
	st := &s.streams[i]
	st.last = s.clk.Mark(d).NotBefore(st.last)
	st.q = append(st.q, markEntry{label, st.last})
	if len(st.q) == 1 {
		st.alarm.ArmAt(st.last)
	}
}

func (s *markScript) deadline(label string) {
	m := s.clk.Mark(scriptDeadline)
	s.dq = append(s.dq, markEntry{label, m})
	if !s.set {
		s.set, s.armed = true, m
		s.dalarm.ArmAt(m)
	}
}

func (s *markScript) cancel(label string) {
	s.settled[label] = true
	s.prune()
}

func (s *markScript) prune() {
	for len(s.dq) > 0 && s.settled[s.dq[0].label] {
		s.dq = s.dq[1:]
	}
}

// expire is the deadline alarm's callback: the oldest live entry fires if
// the alarm was armed at its mark; otherwise the alarm moves there.
func (s *markScript) expire() {
	s.prune()
	if len(s.dq) == 0 {
		s.set = false
		s.noops++
		return
	}
	e := s.dq[0]
	if e.m != s.armed {
		s.noops++
		s.armed = e.m
		s.dalarm.ArmAt(e.m)
		return
	}
	s.dq = s.dq[1:]
	s.prune()
	if s.set = len(s.dq) > 0; s.set {
		s.armed = s.dq[0].m
		s.dalarm.ArmAt(s.armed)
	}
	s.fire(e.label)
}

func (s *markScript) plain(label string, d time.Duration) {
	s.clk.AfterFunc(d, func() { s.fire(label) })
}

func (s *markScript) stopIdle() {
	s.clk.mu.Lock()
	before := len(s.clk.timers)
	s.clk.mu.Unlock()
	NewAlarm(s.clk, func() { s.t.Error("a never-armed alarm went off") }).Stop()
	s.clk.mu.Lock()
	after := len(s.clk.timers)
	s.clk.mu.Unlock()
	if after != before {
		s.t.Errorf("Stop on a never-armed alarm changed the heap from %d timers to %d", before, after)
	}
}

// TestMarkKeepsTheFireOrder: one script, played with a timer per event and
// with marks and alarms (one per queue, re-armed from inside its callback,
// left to go off once for an entry pruned from the head), logs the same
// events at the same instants in the same order.
func TestMarkKeepsTheFireOrder(t *testing.T) {
	ref := NewSimClock()
	byTimer := &timerScript{clk: ref, timers: map[string]*Alarm{}}
	ref.Run(func() { playFireScript(ref, byTimer) })

	clk := NewSimClock()
	byMark := newMarkScript(t, clk)
	clk.Run(func() { playFireScript(clk, byMark) })

	if got, want := fmt.Sprint(byMark.log), fmt.Sprint(byTimer.log); got != want {
		t.Errorf("marks fired\n %s\ntimers fired\n %s", got, want)
	}
	if len(byTimer.log) != 12 {
		t.Errorf("the script fired %d events, want 12: %v", len(byTimer.log), byTimer.log)
	}
	if byMark.noops == 0 {
		t.Error("the deadline alarm never went off for a pruned entry")
	}
}
