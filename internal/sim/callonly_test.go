package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/chaos"
	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/sim"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// callOnlyDecorator is a transport decorator in the shape of bench's
// tracer: it implements Call and nothing else, so a client over it makes
// every call through the one Call-only fallback, transport.StarterOf.
type callOnlyDecorator struct {
	inner transport.Transport
	calls atomic.Int64
}

func (d *callOnlyDecorator) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	d.calls.Add(1)
	return d.inner.Call(ctx, to, req)
}

// callOnlyRun plays a seeded stream of write-then-read pairs under a
// SimClock, with latency, a crashed member, spares, hedging, writes that
// complete at W < q and read repair, reads returning early if eager, on
// plane, through the client's transport bare or behind callOnlyDecorator.
// It returns the history, the virtual time the stream took, the client's
// counters and how many calls went through the decorator.
func callOnlyRun(t *testing.T, plane string, eager, decorate bool) (h chaos.History, took time.Duration, stats register.AccessStats, calls int64) {
	t.Helper()
	const n, q, pairs, keys = 30, 8, 120, 6
	sc := vtime.NewSimClock()
	var failed error
	sc.Run(func() {
		w, err := sim.NewWorld(config.Cluster{N: n, Seed: 3, Clock: sc}, plane, 3, sim.TCPOptions{})
		if err != nil {
			failed = err
			return
		}
		defer w.Close()
		w.SetLatency(200*time.Microsecond, 2*time.Millisecond)
		w.Crash(4)
		tr := w.Caller()
		var d *callOnlyDecorator
		if decorate {
			d = &callOnlyDecorator{inner: tr}
			tr = d
		}
		sys, err := quorum.NewUniform(n, q)
		if err != nil {
			failed = err
			return
		}
		cl, err := register.NewClient(register.Options{
			System: sys, Mode: register.Benign, Transport: tr, Time: sc,
			Rand: rand.New(rand.NewSource(5)), Clock: ts.NewClock(1),
			Tuning: config.Tuning{Spares: 2, HedgeDelay: time.Millisecond, W: q - 2, ReadRepair: true, EagerRead: eager},
		})
		if err != nil {
			failed = err
			return
		}
		ctx := context.Background()
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		for i := 0; i < pairs; i++ {
			key := fmt.Sprintf("k%d", i%keys)
			val := fmt.Sprintf("v%d", i)
			wr, err := cl.Write(ctx, key, []byte(val))
			h = append(h, chaos.Op{Seq: len(h), Time: i, Kind: chaos.OpWrite, Key: key, Value: val, Stamp: wr.Stamp,
				Full: len(wr.Acked) == len(wr.Quorum), Quorum: wr.Quorum, Err: errText(err)})
			rr, err := cl.Read(ctx, key)
			h = append(h, chaos.Op{Seq: len(h), Time: i, Kind: chaos.OpRead, Key: key, Value: string(rr.Value), Stamp: rr.Stamp,
				Found: rr.Found, Quorum: rr.Quorum, Err: errText(err)})
		}
		cl.WaitDrained()
		took, stats = sc.Elapsed(), cl.Stats()
		if d != nil {
			calls = d.calls.Load()
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	return h, took, stats, calls
}

// TestCallOnlyDecoratorKeepsTheHistory: a client whose transport is hidden
// behind a Call-only decorator — every call on a worker of its own — records
// the history the same client records over the bare transport, whose calls
// complete on timers and on the connection's delivery alarm, byte for byte,
// in the same virtual time, promoting and repairing as often. On the memory
// plane with latency and on tcp-virtual; the -eager rows also return reads
// early, whose repair pushes then wait on latency while late replies are in
// flight.
func TestCallOnlyDecoratorKeepsTheHistory(t *testing.T) {
	for _, plane := range []string{sim.TransportMem, sim.TransportTCPVirtual} {
		for _, eager := range []bool{false, true} {
			name := plane
			if eager {
				name += "-eager"
			}
			t.Run(name, func(t *testing.T) { testCallOnlyKeepsTheHistory(t, plane, eager) })
		}
	}
}

func testCallOnlyKeepsTheHistory(t *testing.T, plane string, eager bool) {
	bare, bareTook, bareStats, _ := callOnlyRun(t, plane, eager, false)
	decorated, decoratedTook, decoratedStats, calls := callOnlyRun(t, plane, eager, true)
	if calls == 0 {
		t.Fatal("no call went through the decorator")
	}
	if bareStats.SparesPromoted == 0 || bareStats.LateReplies == 0 {
		t.Fatalf("no spare promoted or no late reply drained (%+v): the stream exercised neither", bareStats)
	}
	if eager && bareStats.LateRepairs == 0 {
		t.Fatalf("no late reply repaired (%+v): the eager stream never repaired from the drain", bareStats)
	}
	if d := bare.Diff(decorated); d != "" {
		t.Fatalf("the decorated client's history differs: %s", d)
	}
	a, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(decorated)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("the histories are equal op by op but not byte for byte")
	}
	if bareTook != decoratedTook || bareStats != decoratedStats {
		t.Errorf("the stream took %v bare and %v decorated; counters\n bare      %+v\n decorated %+v", bareTook, decoratedTook, bareStats, decoratedStats)
	}
}
