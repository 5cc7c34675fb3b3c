package vtime

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// queueModel is the reference the timer queue is held to: the armed timers
// in a plain slice, the earliest found by sorting it on (at, seq). It draws
// marks as the clock does, so its keys are computed, not read back.
type queueModel struct {
	now   int64
	seq   uint64
	armed []modelTimer
	left  []int // per alarm: self re-arms still owed
	log   []string
}

type modelTimer struct {
	at    int64
	seq   uint64
	label string
	alarm int // the alarm's index, or -1
}

func (m *queueModel) mark(d time.Duration) Mark {
	m.seq++
	return Mark{at: m.now + int64(max(d, 0)), seq: m.seq}
}

func (m *queueModel) arm(label string, alarm int, k Mark) {
	m.disarm(label)
	m.armed = append(m.armed, modelTimer{at: k.at, seq: k.seq, label: label, alarm: alarm})
}

// disarm drops label's timer, if armed.
func (m *queueModel) disarm(label string) {
	m.armed = slices.DeleteFunc(m.armed, func(e modelTimer) bool { return e.label == label })
}

func (m *queueModel) armedAt(label string) (int64, bool) {
	for _, e := range m.armed {
		if e.label == label {
			return e.at, true
		}
	}
	return 0, false
}

// fireThrough fires timers earliest first until label's has fired. A fired
// alarm does what its callback does (see playQueue).
func (m *queueModel) fireThrough(label string) {
	for len(m.armed) > 0 {
		slices.SortFunc(m.armed, func(a, b modelTimer) int {
			if a.at != b.at {
				return cmp.Compare(a.at, b.at)
			}
			return cmp.Compare(a.seq, b.seq)
		})
		e := m.armed[0]
		m.armed = m.armed[1:]
		m.now = max(m.now, e.at)
		m.log = append(m.log, fmt.Sprintf("%s@%v", e.label, time.Duration(m.now)))
		switch i := e.alarm; {
		case i < 0:
		case m.left[i] > 0:
			m.left[i]--
			m.arm(e.label, i, m.mark(rearmDelay(i)))
		case i%4 == 2:
			j := (i + 1) % queueAlarms
			m.arm(fmt.Sprintf("a%d", j), j, m.mark(time.Millisecond))
		}
		if e.label == label {
			return
		}
	}
}

// rearmDelay is how far from its fire alarm i re-arms itself; 0 re-arms at
// the instant it fires, behind every timer already due there.
func rearmDelay(i int) time.Duration { return time.Duration(i%3) * time.Millisecond }

// queueSleeper is a worker parked in SleepCtx.
type queueSleeper struct {
	label  string
	cancel context.CancelFunc
	done   chan struct{}
}

// queueAlarms is how many alarms playQueue drives.
const queueAlarms = 8

// playQueue plays steps seeded random timer operations inside one Run and
// returns the fire log and the model's. An alarm's callback re-arms it while
// it owes re-arms; past those, alarm 4k+2's arms the next alarm and alarm
// 4k+3's stops its own, which changes nothing.
func playQueue(t *testing.T, seed int64, steps int) (got, want []string) {
	const alarms = queueAlarms
	rng := rand.New(rand.NewSource(seed))
	clk := NewSimClock()
	model := &queueModel{left: make([]int, alarms)}
	var mu sync.Mutex // the log is written by callbacks, sleepers and the root
	logFire := func(label string) {
		mu.Lock()
		got = append(got, fmt.Sprintf("%s@%v", label, clk.Elapsed()))
		mu.Unlock()
	}
	delay := func() time.Duration { return time.Duration(rng.Intn(4)) * time.Millisecond }
	draw := func(d time.Duration) Mark {
		m, w := clk.Mark(d), model.mark(d)
		if m != w {
			t.Errorf("seed %d: drew mark %+v, the model drew %+v", seed, m, w)
		}
		return m
	}
	clk.Run(func() {
		as := make([]*Alarm, alarms)
		left := make([]int, alarms)
		for i := range as {
			label := fmt.Sprintf("a%d", i)
			as[i] = NewAlarm(clk, func() {
				logFire(label)
				switch {
				case left[i] > 0:
					left[i]--
					as[i].ArmAt(clk.Mark(rearmDelay(i)))
				case i%4 == 2:
					as[(i+1)%alarms].ArmAt(clk.Mark(time.Millisecond))
				case i%4 == 3:
					as[i].Stop()
				}
			})
		}
		armAlarm := func(i int, m Mark) {
			label := fmt.Sprintf("a%d", i)
			n := rng.Intn(3)
			left[i], model.left[i] = n, n
			as[i].ArmAt(m)
			model.arm(label, i, m)
		}
		var pool []Mark
		var sleepers []queueSleeper
		for step := range steps {
			switch op := rng.Intn(9); op {
			case 0: // a one-shot callback
				label := fmt.Sprintf("f%d", step)
				d := delay()
				clk.AfterFunc(d, func() { logFire(label) })
				model.arm(label, -1, model.mark(d))
			case 1, 2: // an alarm armed at a fresh mark; if armed, earlier, level or later
				i := rng.Intn(alarms)
				d := delay()
				if at, ok := model.armedAt(fmt.Sprintf("a%d", i)); ok {
					d = max(time.Duration(at-model.now)+time.Duration(rng.Intn(3)-1)*time.Millisecond, 0)
				}
				armAlarm(i, draw(d))
			case 3: // an alarm armed at a mark reserved earlier, maybe already past
				if len(pool) > 0 {
					k := rng.Intn(len(pool))
					m := pool[k]
					pool = slices.Delete(pool, k, k+1)
					armAlarm(rng.Intn(alarms), m)
				}
			case 4:
				pool = append(pool, draw(delay()))
			case 5:
				i := rng.Intn(alarms)
				as[i].Stop()
				model.disarm(fmt.Sprintf("a%d", i))
			case 6: // a worker parked in SleepCtx, armed before the root goes on
				s := queueSleeper{label: fmt.Sprintf("s%d", step), done: make(chan struct{})}
				var ctx context.Context
				ctx, s.cancel = context.WithCancel(context.Background())
				d := delay() + time.Millisecond
				model.arm(s.label, -1, model.mark(d))
				before := clk.seq.Load()
				clk.Go(func() {
					if clk.SleepCtx(ctx, d) == nil {
						logFire(s.label)
					}
					close(s.done)
				})
				await(t, clk, "the sleeper never armed its timer", func() bool { return clk.seq.Load() > before })
				sleepers = append(sleepers, s)
			case 7: // a sleeper cancelled while its timer is armed
				k := slices.IndexFunc(sleepers, func(s queueSleeper) bool {
					_, ok := model.armedAt(s.label)
					return ok
				})
				if k >= 0 {
					s := sleepers[k]
					sleepers = slices.Delete(sleepers, k, k+1)
					s.cancel()
					// The root stays running until the sleeper has taken its
					// timer off the heap, so no timer fires meanwhile.
					<-s.done
					model.disarm(s.label)
				}
			case 8: // the root sleeps and the due timers fire
				label := fmt.Sprintf("r%d", step)
				d := delay() + time.Millisecond
				model.arm(label, -1, model.mark(d))
				model.fireThrough(label)
				clk.Sleep(d)
				logFire(label)
			}
		}
		for i, a := range as {
			a.Stop()
			model.disarm(fmt.Sprintf("a%d", i))
		}
		model.arm("end", -1, model.mark(time.Hour))
		model.fireThrough("end")
		clk.Sleep(time.Hour)
		logFire("end")
		for _, s := range sleepers {
			s.cancel()
		}
	})
	if n := len(clk.timers); n != 0 {
		t.Errorf("seed %d: %d timers left armed", seed, n)
	}
	return got, model.log
}

// TestTimerQueueMatchesTheModel: seeded random interleavings of AfterFunc,
// Alarm.ArmAt (idle and armed, at earlier, equal and later deadlines, at
// fresh marks and at marks reserved earlier), Alarm.Stop, SleepCtx
// cancellations, and callbacks that re-arm or stop their own alarm or arm
// another, fire in exactly the order of a plain slice sorted by (deadline,
// sequence), at the same instants.
func TestTimerQueueMatchesTheModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		var got, want []string
		played := make(chan struct{})
		go func() {
			defer close(played)
			got, want = playQueue(t, seed, 300)
		}()
		select {
		case <-played:
		case <-time.After(20 * time.Second):
			// A timer lost or left armed twice stalls the world rather
			// than misordering it.
			t.Fatalf("seed %d: the run hung", seed)
		}
		if len(want) < 100 {
			t.Fatalf("seed %d: only %d fires; the script exercises too little", seed, len(want))
		}
		if i := firstDiff(got, want); i >= 0 {
			lo := max(i-3, 0)
			t.Fatalf("seed %d: fire %d differs\n got  %v\n want %v", seed, i, got[lo:min(i+4, len(got))], want[lo:min(i+4, len(want))])
		}
	}
}

// firstDiff is the first index at which a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// BenchmarkSimTimerQueue prices one fire of a busy timer queue: 512 armed
// alarms, each re-arming itself on its fire at a seeded later mark, as a
// population of connections keeps one delivery alarm each. ns/op is per
// fire.
func BenchmarkSimTimerQueue(b *testing.B) {
	const alarms = 512
	rng := rand.New(rand.NewSource(1))
	var delays [1024]time.Duration
	for i := range delays {
		delays[i] = time.Duration(1+rng.Intn(1000)) * time.Microsecond
	}
	clk := NewSimClock()
	b.ReportAllocs()
	clk.Run(func() {
		done := NewChan[struct{}](SchedOf(clk), 1)
		as := make([]*Alarm, alarms)
		fires := 0
		for i := range as {
			as[i] = NewAlarm(clk, func() {
				fires++
				switch {
				case fires == b.N:
					done.Send(struct{}{})
				case fires < b.N:
					as[i].ArmAt(clk.Mark(delays[fires%len(delays)]))
				}
			})
			as[i].ArmAt(clk.Mark(delays[i%len(delays)]))
		}
		b.ResetTimer()
		done.Recv()
		b.StopTimer()
		for _, a := range as {
			a.Stop()
		}
	})
}
