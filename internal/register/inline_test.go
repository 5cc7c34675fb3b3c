package register

// Tests for the rule "a call that cannot park runs on the caller": that a
// call which can park never does (soundness), and that running calls on
// the caller changes nothing an operation reports or leaves behind
// (differential against the same network behind callOnly).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// pathCounter is a MemNetwork that counts how its calls went — completed
// on the caller or left pending — and records on which goroutine a pending
// call was started.
type pathCounter struct {
	*transport.MemNetwork
	onCaller, pending atomic.Int64
	pendingOn         atomic.Uint64
}

func (p *pathCounter) Start(ctx context.Context, to quorum.ServerID, req any, sink transport.Sink, tag int) (any, error, bool) {
	resp, err, pending := p.MemNetwork.Start(ctx, to, req, sink, tag)
	if pending {
		p.pending.Add(1)
		p.pendingOn.Store(goid())
	} else {
		p.onCaller.Add(1)
	}
	return resp, err, pending
}

// napper is a Behavior this package's replicas know nothing about: correct,
// after a sleep.
type napper struct {
	replica.Correct
	clk vtime.Clock
	nap time.Duration
}

func (n napper) OnRead(key string, correct wire.ReadReply) (wire.ReadReply, error) {
	n.clk.Sleep(n.nap)
	return n.Correct.OnRead(key, correct)
}

// TestParkingCallsNeverRunOnTheCaller: a zero-latency MemNetwork under a
// SimClock, an access set of 23 of which one member can park for 50 ms — a
// Delayed replica, a replica with a foreign Behavior that sleeps, or a link
// with latency — one spare, a 2 ms hedge, eager reads. The 22 that cannot
// park complete on the caller. The one that can is started on the caller
// and left pending: the network hands it to a worker when its replica may
// sleep, and completes it by the clock when only latency delays it. Either
// way the gather goroutine is free when the hedge timer fires: the read
// promotes the spare (which completes on the caller too) and completes at
// exactly the hedge delay. Had the parking call run on the caller, the timer
// could not have been served before it returned and the read would end at
// 50 ms.
func TestParkingCallsNeverRunOnTheCaller(t *testing.T) {
	const (
		q          = 23
		straggler  = quorum.ServerID(5)
		stall      = 50 * time.Millisecond
		hedgeDelay = 2 * time.Millisecond
	)
	for _, c := range []struct {
		name string
		park func(clk *vtime.SimClock, net *transport.MemNetwork, rep *replica.Replica)
	}{
		{"Delayed", func(clk *vtime.SimClock, _ *transport.MemNetwork, rep *replica.Replica) {
			rep.SetBehavior(replica.Delayed{Delay: stall, Clock: clk})
		}},
		{"foreign Behavior", func(clk *vtime.SimClock, _ *transport.MemNetwork, rep *replica.Replica) {
			rep.SetBehavior(napper{clk: clk, nap: stall})
		}},
		{"server latency", func(_ *vtime.SimClock, net *transport.MemNetwork, _ *replica.Replica) {
			net.SetServerLatency(straggler, stall, stall)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk := vtime.NewSimClock()
			net := &pathCounter{MemNetwork: transport.NewMemNetwork(5)}
			var (
				rr      ReadResult
				readErr error
				took    time.Duration
				stats   AccessStats
				caller  uint64
			)
			clk.Run(func() {
				caller = goid()
				net.SetClock(clk)
				members := make([]quorum.ServerID, q)
				for i := 0; i <= q; i++ {
					rep := replica.New(quorum.ServerID(i))
					rep.Store().Apply("k", replica.Entry{Value: []byte("v"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})
					net.Register(quorum.ServerID(i), rep)
					if quorum.ServerID(i) == straggler {
						c.park(clk, net.MemNetwork, rep)
					}
					if i < q {
						members[i] = quorum.ServerID(i)
					}
				}
				cl, err := NewClient(Options{
					System: fixedSystem{SpareSampler: uniformSystem(t, q+1, q), members: members, spares: []quorum.ServerID{q}},
					Mode:   Benign, Transport: net, Time: clk,
					Rand:   rand.New(rand.NewSource(1)),
					Tuning: config.Tuning{Spares: 1, HedgeDelay: hedgeDelay, EagerRead: true},
				})
				if err != nil {
					readErr = err
					return
				}
				rr, readErr = cl.Read(context.Background(), "k")
				took = clk.Elapsed()
				cl.WaitDrained()
				stats = cl.Stats()
			})
			if readErr != nil {
				t.Fatal(readErr)
			}
			if took != hedgeDelay {
				t.Errorf("read took %v of virtual time, want exactly the hedge delay %v (a call parked on the caller would make it %v)", took, hedgeDelay, stall)
			}
			if !rr.Found || string(rr.Value) != "v" || rr.Promoted != 1 || rr.Replies != q || !rr.Early {
				t.Errorf("read returned %+v; want the value from %d replies, one spare promoted, early", rr, q)
			}
			if on, pending := net.onCaller.Load(), net.pending.Load(); on != q || pending != 1 {
				t.Errorf("%d calls completed on the caller and %d were left pending; want %d (22 members and the spare) and 1", on, pending, q)
			}
			if net.pendingOn.Load() != caller {
				t.Errorf("the parking call was started on goroutine %d, want the caller's (%d)", net.pendingOn.Load(), caller)
			}
			if stats.LateReplies != 1 {
				t.Errorf("%d late replies, want the straggler's", stats.LateReplies)
			}
		})
	}
}

// TestCancelWithParkedMemberReturnsPromptly: under the wall clock, a
// wait-for-all read whose access set holds one member that sleeps is still
// the context's to cancel — the sleeper is on a worker, the gather
// goroutine is in its select.
func TestCancelWithParkedMemberReturnsPromptly(t *testing.T) {
	const n, q, stall = 9, 9, 400 * time.Millisecond
	baseline := runtime.NumGoroutine()
	c := newCluster(t, n)
	cl := hedgedClient(t, c, uniformSystem(t, n, q), Options{})
	if _, err := cl.Write(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.reps[3].SetBehavior(replica.Delayed{Delay: stall})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	rr, err := cl.Read(ctx, "k")
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took >= stall/2 {
		t.Errorf("read took %v: it waited out the sleeping member instead of the cancelled context", took)
	}
	if rr.Replies != q-1 || !rr.Found || string(rr.Value) != "v" {
		t.Errorf("read returned %+v; want the value from the %d members that answered", rr, q-1)
	}
	cl.WaitDrained()
	settleGoroutines(t, baseline) // the sleeper's worker, once it wakes and retires
}

// TestDeadContextIsReportedFromTheCallerPath: with every call run on the
// caller the gather never waits, so it never selects on the context; an
// operation issued on a dead one must still say so rather than report the
// members' "context canceled" failures as a quorum that did not answer.
func TestDeadContextIsReportedFromTheCallerPath(t *testing.T) {
	const n, q = 6, 3
	cl := hedgedClient(t, newCluster(t, n), uniformSystem(t, n, q), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Read(ctx, "x"); !errors.Is(err, context.Canceled) {
		t.Errorf("Read err = %v, want context.Canceled", err)
	}
	if _, err := cl.Write(ctx, "x", []byte("v")); !errors.Is(err, context.Canceled) {
		t.Errorf("Write err = %v, want context.Canceled", err)
	}
}

// opOutcome is what an operation reports that must not depend on where its
// calls ran.
type opOutcome struct {
	Quorum                                  []quorum.ServerID
	Found                                   bool
	Value                                   string
	Stamp                                   ts.Stamp
	Replies, Vouchers, Discarded            int
	Repaired, Promoted, Acked, FailedMember int
	Early                                   bool
	Err                                     string
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// differentialCase is one protocol configuration of the differential test.
type differentialCase struct {
	name    string
	n, q    int
	opts    Options
	forgers []quorum.ServerID
	crashed []quorum.ServerID
}

// differentialRun plays one seeded stream of writes and reads against a
// fresh cluster, through the network itself or through callOnly, and
// returns every outcome, the final store of every replica and, per
// destination, the drop verdicts of a burst of probe calls — which depend on
// nothing but how many calls the destination had already been sent.
func differentialRun(t *testing.T, dc differentialCase, direct bool) (outcomes []opOutcome, stores []map[string]replica.Entry, probes [][]bool) {
	t.Helper()
	const ops, keys, probeCalls = 300, 6, 24
	c := newCluster(t, dc.n)
	s := newSigner(t)
	opts := dc.opts
	opts.Rand = rand.New(rand.NewSource(11))
	if opts.Mode == Dissemination {
		opts.Signer, opts.Registry = s.kp.Private, s.reg
	}
	paths := &pathCounter{MemNetwork: c.net}
	opts.Transport = paths
	if !direct {
		opts.Transport = callOnly{c.net}
	}
	cl := hedgedClient(t, c, uniformSystem(t, dc.n, dc.q), opts)
	if _, own := cl.cells[0].start.(*pathCounter); own != direct {
		t.Fatalf("client starts calls with the network's own Start: %v, want %v", own, direct)
	}
	ctx := context.Background()
	for k := 0; k < keys; k++ {
		if _, err := cl.Write(ctx, fmt.Sprintf("k%d", k), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	cl.WaitDrained() // W < q leaves calls in flight; none may straddle the fault set-up
	for _, id := range dc.forgers {
		c.reps[id].SetBehavior(replica.Forger{Value: []byte("forged"), Stamp: ts.Stamp{Counter: 1 << 40, Writer: 1}, Sig: []byte("stolen")})
	}
	for _, id := range dc.crashed {
		c.net.Crash(id)
	}
	c.net.SetDropProb(0.05)

	stream := rand.New(rand.NewSource(23))
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%d", stream.Intn(keys))
		var o opOutcome
		if stream.Intn(3) == 0 {
			wr, err := cl.Write(ctx, key, []byte(fmt.Sprintf("v%d", i)))
			o = opOutcome{Quorum: wr.Quorum, Stamp: wr.Stamp, Promoted: wr.Promoted, Err: errText(err)}
			if opts.W == 0 {
				// A wait-for-all write has seen every reply. With W < q,
				// which members answer before the W-th acknowledgement is
				// the scheduler's choice on the pool.
				o.Acked, o.FailedMember, o.Early = len(wr.Acked), len(wr.Errs), wr.Early
			}
		} else {
			rr, err := cl.Read(ctx, key)
			o = opOutcome{Quorum: rr.Quorum, Found: rr.Found, Value: string(rr.Value), Stamp: rr.Stamp,
				Replies: rr.Replies, Vouchers: rr.Vouchers, Discarded: rr.Discarded,
				Repaired: rr.Repaired, Promoted: rr.Promoted, Early: rr.Early, Err: errText(err)}
		}
		outcomes = append(outcomes, o)
		// One operation's calls at a time, so the per-destination call
		// order — and with it the drop pattern — is the stream's own.
		cl.WaitDrained()
	}
	if pending := paths.pending.Load(); direct && pending != 0 {
		t.Errorf("the direct client left %d calls pending; nothing on this network can park", pending)
	}

	for _, r := range c.reps {
		stores = append(stores, r.Store().Snapshot())
	}
	c.net.SetDropProb(0.5)
	for _, id := range dc.crashed {
		c.net.Recover(id)
	}
	for id := 0; id < dc.n; id++ {
		verdicts := make([]bool, probeCalls)
		for i := range verdicts {
			_, err := c.net.Call(ctx, quorum.ServerID(id), wire.PingRequest{})
			verdicts[i] = errors.Is(err, transport.ErrDropped)
		}
		probes = append(probes, verdicts)
	}
	return outcomes, stores, probes
}

// TestInlineMatchesPoolDifferential: the same seeded stream of operations,
// over a lossy network with a crashed member, gives the same results, sends
// every server the same number of calls (so loses the same ones) and
// leaves the same bytes on every replica whether its calls run on the
// caller (MemNetwork's Start) or on pool workers (the same network behind
// callOnly) — in each protocol, with spares, with W < q, with read
// repair. (Spares and W < q are not combined: whether a failure is seen
// before the W-th acknowledgement, and so whether a spare receives the
// write, is a race between replies on the pool, by design.) Run under -race.
func TestInlineMatchesPoolDifferential(t *testing.T) {
	baseline := runtime.NumGoroutine()
	defer settleGoroutines(t, baseline) // the pool side's idle workers
	for _, dc := range []differentialCase{
		{name: "benign", n: 12, q: 7, opts: Options{Mode: Benign}},
		{name: "benign spares eager repair", n: 12, q: 7, crashed: []quorum.ServerID{4},
			opts: Options{Mode: Benign, Tuning: config.Tuning{Spares: 2, EagerRead: true, ReadRepair: true}}},
		{name: "benign W repair", n: 12, q: 7, crashed: []quorum.ServerID{4},
			opts: Options{Mode: Benign, Tuning: config.Tuning{ReadRepair: true, W: 5}}},
		{name: "dissemination forgers spares eager repair", n: 12, q: 7, forgers: []quorum.ServerID{1, 6}, crashed: []quorum.ServerID{9},
			opts: Options{Mode: Dissemination, Tuning: config.Tuning{Spares: 2, EagerRead: true, ReadRepair: true}}},
		{name: "dissemination forgers W", n: 12, q: 7, forgers: []quorum.ServerID{2},
			opts: Options{Mode: Dissemination, Tuning: config.Tuning{W: 4}}},
		{name: "masking forgers spares", n: 12, q: 9, forgers: []quorum.ServerID{0, 7}, crashed: []quorum.ServerID{3},
			opts: Options{Mode: Masking, K: 3, Tuning: config.Tuning{Spares: 2}}},
		{name: "masking forgers W", n: 12, q: 9, forgers: []quorum.ServerID{0, 7},
			opts: Options{Mode: Masking, K: 3, Tuning: config.Tuning{W: 7}}},
	} {
		t.Run(dc.name, func(t *testing.T) {
			inlineOut, inlineStores, inlineProbes := differentialRun(t, dc, true)
			poolOut, poolStores, poolProbes := differentialRun(t, dc, false)
			failed, promoted := 0, 0
			for i := range inlineOut {
				if !reflect.DeepEqual(inlineOut[i], poolOut[i]) {
					t.Fatalf("operation %d differs:\n on the caller %+v\n on the pool   %+v", i, inlineOut[i], poolOut[i])
				}
				if inlineOut[i].Err != "" {
					failed++
				}
				promoted += inlineOut[i].Promoted
			}
			if failed == len(inlineOut) {
				t.Fatal("every operation failed; the test compared nothing")
			}
			if dc.opts.Spares > 0 && promoted == 0 {
				t.Error("no spare was ever promoted; drops and the crashed member exercised nothing")
			}
			for id := range inlineStores {
				if !reflect.DeepEqual(inlineStores[id], poolStores[id]) {
					t.Errorf("replica %d holds different entries:\n on the caller %v\n on the pool   %v", id, inlineStores[id], poolStores[id])
				}
				if !reflect.DeepEqual(inlineProbes[id], poolProbes[id]) {
					t.Errorf("server %d was sent a different number of calls: its next drop verdicts are\n on the caller %v\n on the pool   %v", id, inlineProbes[id], poolProbes[id])
				}
			}
		})
	}
}
