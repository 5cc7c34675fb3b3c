package register

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// usePool makes every operation borrow from a pool whose New is newFn
// until the test ends.
func usePool(t *testing.T, newFn func() any) {
	t.Helper()
	prev := scratchPool
	scratchPool = &sync.Pool{New: newFn}
	t.Cleanup(func() { scratchPool = prev })
}

// lendOnly makes every operation borrow s until the test ends: the pool
// hands it out whether or not it was put back. Operations must not
// overlap, so each waits out its drain.
func lendOnly(t *testing.T, s *scratch) {
	t.Helper()
	usePool(t, func() any { return s })
}

// poolRow is one cell a pooled scratch is lent to: its quorum and spares,
// whether it hedges adaptively, and whether it runs under a SimClock of its
// own (with 1-2 ms of link latency, so calls are pending and the reply
// channel is made) or the wall clock (zero latency: every call runs on the
// caller).
type poolRow struct {
	name      string
	q, spares int
	adaptive  bool
	sim       bool
}

// poolRowRun runs write, read, write, read on a fresh 100-server cluster
// as row's cell, each operation's drain waited out, and returns what the
// operations returned, the cell's stats and, under a SimClock, the virtual
// time taken. The wall clock's latency estimates are left out.
func poolRowRun(t *testing.T, row poolRow) string {
	t.Helper()
	var b strings.Builder
	run := func(clk vtime.Clock) {
		net := newVirtualNet(100, 7, clk)
		if row.sim {
			net.SetLatency(time.Millisecond, 2*time.Millisecond)
		}
		tun := config.Tuning{Spares: row.spares, AdaptiveHedge: row.adaptive}
		if row.adaptive {
			tun.HedgeDelay = time.Millisecond
		}
		c, err := NewClient(Options{
			System: uniformSystem(t, 100, row.q), Mode: Benign, Transport: net,
			Rand: rand.New(rand.NewSource(1)), Clock: ts.NewClock(1), Time: clk,
			Tuning: tun,
		})
		if err != nil {
			fmt.Fprintln(&b, err)
			return
		}
		ctx := context.Background()
		for _, v := range []string{"v", "w"} {
			wr, err := c.Write(ctx, "k", []byte(v))
			c.WaitDrained()
			fmt.Fprintf(&b, "write %+v %v\n", wr, err)
			rr, err := c.Read(ctx, "k")
			c.WaitDrained()
			fmt.Fprintf(&b, "read %+v %v\n", rr, err)
		}
		st := c.Stats()
		if clk == nil {
			st.SRTT, st.RTTVar, st.HedgeDelay = 0, 0, 0
		} else {
			fmt.Fprintf(&b, "elapsed %v\n", clk.(*vtime.SimClock).Elapsed())
		}
		fmt.Fprintf(&b, "stats %+v\n", st)
	}
	if !row.sim {
		run(nil)
		return b.String()
	}
	clk := vtime.NewSimClock()
	clk.Run(func() { run(clk) })
	return b.String()
}

// TestPooledScratchIsReset: one scratch is lent, in turn, to cells that
// differ in quorum and spares, in adaptive hedging and in clock (the wall
// clock, then two SimClocks), and every operation returns what a twin
// client on fresh scratch returns. A pool that handed a scratch on as its
// last borrower left it would index the last cell's dispatch times past
// their end, time calls on a finished clock, or take replies on another
// world's channel.
func TestPooledScratchIsReset(t *testing.T) {
	rows := []poolRow{
		{"23+2 adaptive, wall clock", 23, 2, true, false},
		{"64+0, SimClock A", 64, 0, false, true},
		{"23+2 adaptive, SimClock B", 23, 2, true, true},
		{"23+2, SimClock C", 23, 2, false, true},
		{"64+0, wall clock", 64, 0, false, false},
	}
	shared := new(scratch)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			usePool(t, func() any { return new(scratch) })
			want := poolRowRun(t, row)
			lendOnly(t, shared)
			if got := poolRowRun(t, row); got != want {
				t.Errorf("on the shared scratch:\n%s\non fresh scratch:\n%s", got, want)
			}
		})
	}
}
