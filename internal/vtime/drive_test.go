package vtime

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// goid is the calling goroutine's id, read from the "goroutine <id>
// [running]:" header of its stack.
func goid() uint64 {
	var buf [64]byte
	id, _ := strconv.ParseUint(string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1]), 10, 64)
	return id
}

// await polls cond under clk.mu until it holds, and fails t with what
// after ten seconds. A callback may wait so only on a worker that is
// provably not the driver (rule 3).
func await(t *testing.T, clk *SimClock, what string, cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		clk.mu.Lock()
		ok := cond()
		clk.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Error(what)
			return
		}
		runtime.Gosched()
	}
}

// TestTheParkerDrivesTheClock: the worker whose park makes the world
// quiescent fires the timers itself, one event at a time; no timer fires
// once the last worker has exited; and a deadlock still panics in Run's
// caller.
func TestTheParkerDrivesTheClock(t *testing.T) {
	t.Run("own-wakeups", func(t *testing.T) {
		// A lone worker's wake-ups are all its own: every callback runs on
		// it, so a reply reaches its Recv without a goroutine switch.
		clk := NewSimClock()
		var worker uint64
		var ran, elsewhere int
		note := func() {
			ran++
			if goid() != worker {
				elsewhere++
			}
		}
		clk.Run(func() {
			worker = goid()
			ch := NewChan[int](SchedOf(clk), 1)
			i := 0
			a := NewAlarm(clk, func() {
				note()
				ch.Send(i)
			})
			for ; i < 10; i++ {
				a.ArmAt(clk.Mark(time.Millisecond))
				if got := ch.Recv(); got != i {
					t.Errorf("received %d, want %d", got, i)
				}
				clk.AfterFunc(time.Millisecond, note)
				clk.Sleep(2 * time.Millisecond)
			}
		})
		if ran != 20 || elsewhere != 0 {
			t.Errorf("%d of %d callbacks ran on another goroutine than the lone worker's; want 0 of 20", elsewhere, ran)
		}
		if got := clk.Elapsed(); got != 30*time.Millisecond {
			t.Errorf("elapsed %v, want 30ms", got)
		}
	})

	t.Run("one-event-at-a-time", func(t *testing.T) {
		// W parks first, the root last, so the root drives. The first
		// callback wakes W and waits for it to park again; W's re-park makes
		// the world quiescent while that callback still runs, and must not
		// fire the next one. Rule 3 forbids a callback to wait on a worker
		// because that worker may be the driver; here the driver is
		// provably the root, not W, so W can run and the wait ends.
		clk := NewSimClock()
		var in atomic.Int32
		var overlap atomic.Bool
		callback := func(body func()) func() {
			return func() {
				if in.Add(1) > 1 {
					overlap.Store(true)
				}
				body()
				in.Add(-1)
			}
		}
		clk.Run(func() {
			ch := NewChan[bool](SchedOf(clk), 1)
			clk.Go(func() {
				for ch.Recv() {
				}
			})
			clk.Settle() // W is parked in its Recv
			clk.AfterFunc(time.Millisecond, callback(func() {
				ch.Send(true)
				await(t, clk, "the woken worker never parked again", func() bool {
					return clk.parked == clk.workers && clk.pending == 0
				})
			}))
			for range 3 {
				clk.AfterFunc(time.Millisecond, callback(func() {}))
			}
			clk.Sleep(2 * time.Millisecond)
			ch.Send(false)
		})
		if overlap.Load() {
			t.Error("two callbacks ran at once")
		}
	})

	t.Run("last-exit", func(t *testing.T) {
		// W parks before the root exits, so Run's caller drives. A callback
		// wakes W and waits for it to exit (the driver is not W); the world
		// is then over, and the ticker still armed must not fire again.
		clk := NewSimClock()
		ticks := 0
		clk.Run(func() {
			ch := NewChan[struct{}](SchedOf(clk), 1)
			clk.Go(func() { ch.Recv() })
			clk.Settle()
			var tick func()
			tick = func() {
				if ticks++; ticks < 100 {
					clk.AfterFunc(time.Millisecond, tick)
				}
			}
			clk.AfterFunc(time.Millisecond, tick)
			clk.AfterFunc(5*time.Millisecond/2, func() {
				ch.Send(struct{}{})
				await(t, clk, "the woken worker never exited", func() bool { return clk.workers == 0 })
			})
		})
		if ticks != 2 {
			t.Errorf("the ticker fired %d times, want 2 (at 1 and 2 ms, none after the last worker exited)", ticks)
		}
	})

	t.Run("deadlock", func(t *testing.T) {
		// The root waits first; the spawned worker's Sleep fire wakes it,
		// and its park on a receive nobody serves makes the deadlock.
		clk := NewSimClock()
		var msg string
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			clk.Run(func() {
				wg := NewWaitGroup(clk)
				wg.Add(1)
				clk.Go(func() {
					defer wg.Done()
					clk.Sleep(time.Millisecond)
					NewChan[struct{}](SchedOf(clk), 1).Recv()
				})
				wg.Wait()
			})
		}()
		if !strings.Contains(msg, "deadlock") {
			t.Errorf("Run recovered %q, want the deadlock panic", msg)
		}
	})
}

// BenchmarkSimHandoff prices an alarm's fire reaching a worker: the alarm's
// callback sends on the Chan the worker receives from, as a reply reaches
// a gather.
func BenchmarkSimHandoff(b *testing.B) {
	clk := NewSimClock()
	b.ReportAllocs()
	clk.Run(func() {
		ch := NewChan[struct{}](SchedOf(clk), 1)
		a := NewAlarm(clk, func() { ch.Send(struct{}{}) })
		b.ResetTimer()
		for range b.N {
			a.ArmAt(clk.Mark(time.Microsecond))
			ch.Recv()
		}
	})
}

// BenchmarkSimSleep prices a 1 µs virtual Sleep.
func BenchmarkSimSleep(b *testing.B) {
	clk := NewSimClock()
	b.ReportAllocs()
	clk.Run(func() {
		b.ResetTimer()
		for range b.N {
			clk.Sleep(time.Microsecond)
		}
	})
}
