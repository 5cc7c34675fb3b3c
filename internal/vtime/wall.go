package vtime

import (
	"context"
	"sync"
	"time"
)

// WallClock is the production Clock: a stateless veneer over the time
// package. All binaries default to it, so threading a Clock through the
// stack changed no runtime behavior.
type WallClock struct{}

// wall is the shared instance handed out by Wall.
var wall = &WallClock{}

// Wall returns the process-wide wall clock.
func Wall() *WallClock { return wall }

// wallBase is the origin of the wall clock's marks: a Mark's instant is its
// monotonic distance from here, so a wall-clock step cannot move an Alarm.
var wallBase = time.Now()

// Or returns c, or the wall clock when c is nil — the idiom option structs
// use to make the wall clock their zero-value default.
func Or(c Clock) Clock {
	if c == nil {
		return wall
	}
	return c
}

// Now implements Clock.
func (*WallClock) Now() time.Time { return time.Now() }

// Since implements Clock.
func (*WallClock) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (*WallClock) Sleep(d time.Duration) { time.Sleep(d) }

// AfterFunc implements Clock.
func (*WallClock) AfterFunc(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// Mark implements Clock. Wall timers carry no sequence number: equal
// instants fire in whatever order the runtime picks.
func (*WallClock) Mark(d time.Duration) Mark { return Mark{at: int64(time.Since(wallBase) + d)} }

// timerPool recycles SleepCtx timers: allocating a time.Timer (plus its
// runtime timer) per simulated-latency call dominated MemNetwork profiles,
// so the pooled path the transport grew in PR 2 lives on here.
var timerPool = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// SleepCtx implements Clock, blocking for d or until ctx is done, using a
// pooled timer. Go 1.23 timer semantics (Stop and Reset discard an
// undelivered fire) make the reuse safe without drain dances.
func (*WallClock) SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := timerPool.Get().(*time.Timer)
	t.Reset(d)
	select {
	case <-t.C:
		timerPool.Put(t)
		return nil
	case <-ctx.Done():
		t.Stop()
		timerPool.Put(t)
		return ctx.Err()
	}
}

var _ Clock = (*WallClock)(nil)
