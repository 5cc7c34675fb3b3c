// Package fixture seeds the blocking-under-lock shapes lockspan flags,
// plus the release patterns and the one legal wait it must stay quiet on.
package fixture

import (
	"context"
	"sync"
	"time"

	"fixture.example/internal/vtime"
)

var mu sync.Mutex

func send(ch chan int) {
	mu.Lock()
	ch <- 1 // want "channel send while mu is held"
	mu.Unlock()
}

func recv(ch chan int) int {
	mu.Lock()
	defer mu.Unlock()
	return <-ch // want "channel receive while mu is held"
}

func blockingSelect(a, b chan int) {
	mu.Lock()
	defer mu.Unlock()
	select { // want "select with no default while mu is held"
	case <-a:
	case <-b:
	}
}

func sleepUnderLock() {
	mu.Lock()
	defer mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while mu is held"
}

func waitUnderLock(wg *sync.WaitGroup) {
	mu.Lock()
	defer mu.Unlock()
	wg.Wait() // want "sync wg.Wait while mu is held"
}

// trackedUnderLock hands off through a tracked channel: its Send and
// receives block as a bare channel's do.
func trackedUnderLock(ctx context.Context, ch vtime.Chan[int]) {
	mu.Lock()
	defer mu.Unlock()
	ch.Send(1)      // want "tracked channel Send while mu is held"
	_ = ch.Recv()   // want "tracked channel Recv while mu is held"
	ch.RecvCtx(ctx) // want "tracked channel RecvCtx while mu is held"
}

// condWait is the one Wait that REQUIRES the lock: sync.Cond releases it
// internally while parked.
func condWait(c *sync.Cond) {
	mu.Lock()
	defer mu.Unlock()
	c.Wait()
}

// unlockFirst is the unlock-then-act pattern: the send runs outside the
// region.
func unlockFirst(ch chan int) {
	mu.Lock()
	v := 1
	mu.Unlock()
	ch <- v
}

// branchRelease unlocks inside the branch before handing off.
func branchRelease(ch chan int, ready bool) {
	mu.Lock()
	if ready {
		mu.Unlock()
		ch <- 1
		return
	}
	mu.Unlock()
}

// handoff proves its send cannot block and says so with a directive.
func handoff(ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	//pqslint:allow lockspan ch is buffered with capacity 1 and this is the only sender
	ch <- 1
}
