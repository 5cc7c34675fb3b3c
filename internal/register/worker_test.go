package register

// Regressions for calls that leave the caller: a pending call the clock
// completes (transport.Starter) reaches the gather's channel with no
// goroutine of its own, and a call on a Call-only transport gets a worker
// that lives exactly as long as the call. Run under -race.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// TestPoolBurstNeverStrandsAJob hammers the worker path with concurrent
// operations, every call handed off (callOnly): each operation must
// complete, and once the load stops no worker is left behind.
func TestPoolBurstNeverStrandsAJob(t *testing.T) {
	const n, q, clients, ops = 12, 6, 8, 150
	baseline := runtime.NumGoroutine()
	net := newCluster(t, n)
	cl := hedgedClient(t, net, uniformSystem(t, n, q), Options{Transport: callOnly{net.net}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g) // one writer per key
			for i := 0; i < ops; i++ {
				want := fmt.Sprintf("v%d-%d", g, i)
				if wr, err := cl.Write(ctx, key, []byte(want)); err != nil || len(wr.Acked) != q {
					t.Errorf("client %d write %d: acked %d/%d, err %v", g, i, len(wr.Acked), q, err)
					return
				}
				if rr, err := cl.Read(ctx, key); err != nil || rr.Replies != q {
					t.Errorf("client %d read %d: %d/%d replies, err %v", g, i, rr.Replies, q, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("operations hung: a handed-off call never completed")
	}
	settleGoroutines(t, baseline)
}

// TestPoolRetiresOnTheWallClock: a worker exits when its call returns, and a
// started call holds no goroutine at all, so a quiescent client holds none,
// whichever way its calls went.
func TestPoolRetiresOnTheWallClock(t *testing.T) {
	const n, q = 9, 5
	baseline := runtime.NumGoroutine()
	net := newCluster(t, n)
	net.net.SetLatency(time.Millisecond, 2*time.Millisecond)
	for _, tr := range []transport.Transport{callOnly{net.net}, net.net} {
		cl := hedgedClient(t, net, uniformSystem(t, n, q), Options{Transport: tr})
		for i := 0; i < 20; i++ {
			if _, err := cl.Write(context.Background(), "k", []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		settleGoroutines(t, baseline)
	}
}

// virtualHedgedReader is the client of the virtual-dispatch test and
// benchmark, built inside clk.Run: n = 100 replicas behind 200-800µs of
// virtual latency, a uniform q = 23 system with 2 spares and a 500µs hedge
// delay, so nearly every read promotes a spare. Reads are not eager, so
// each waits for every call it made and leaves nothing to a drain. wrap,
// when non-nil, stands between the client and the network.
func virtualHedgedReader(clk *vtime.SimClock, wrap func(*transport.MemNetwork) transport.Transport) (*Client, error) {
	net := newVirtualNet(100, 1, clk)
	net.SetLatency(200*time.Microsecond, 800*time.Microsecond)
	sys, err := quorum.NewUniform(100, 23)
	if err != nil {
		return nil, err
	}
	var tr transport.Transport = net
	if wrap != nil {
		tr = wrap(net)
	}
	return NewClient(Options{
		System: sys, Mode: Benign, Transport: tr, Time: clk,
		Rand: rand.New(rand.NewSource(1)), Clock: ts.NewClock(1),
		Tuning: config.Tuning{Spares: 2, HedgeDelay: 500 * time.Microsecond},
	})
}

// goid is the calling goroutine's id. Ids are handed out in creation order
// (in per-processor batches of 16), so the ids of two goroutines made apart
// bound how many were made between them.
func goid() uint64 {
	var buf [64]byte
	id, _ := strconv.ParseUint(string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1]), 10, 64) // "goroutine <id> [running]:"
	return id
}

// startProbe forwards calls to a MemNetwork, counting how many were left
// pending, how many were made with Call, and the most goroutines the
// process had when one was started or completed.
type startProbe struct {
	net            *transport.MemNetwork
	pending, calls atomic.Int64

	mu   sync.Mutex
	peak int
}

func (p *startProbe) sample() {
	live := runtime.NumGoroutine()
	p.mu.Lock()
	p.peak = max(p.peak, live)
	p.mu.Unlock()
}

func (p *startProbe) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	p.calls.Add(1)
	return p.net.Call(ctx, to, req)
}

func (p *startProbe) Start(ctx context.Context, to quorum.ServerID, req any, sink transport.Sink, tag int) (any, error, bool) {
	p.sample()
	resp, err, pending := p.net.Start(ctx, to, req, probeSink{p, sink}, tag)
	if pending {
		p.pending.Add(1)
	}
	return resp, err, pending
}

// probeSink samples the goroutine count as a pending call completes.
type probeSink struct {
	p    *startProbe
	sink transport.Sink
}

func (s probeSink) Complete(tag int, resp any, err error) {
	s.p.sample()
	s.sink.Complete(tag, resp, err)
}

// TestHedgedVirtualReadStartsNoWorker: under a SimClock, a call whose only
// wait is latency is started by the gather and completed by the clock. Over
// 50 sequential hedged reads every call, spares included, is pending; none
// is made with Call; and the process never holds a goroutine more than it
// had before the first read.
func TestHedgedVirtualReadStartsNoWorker(t *testing.T) {
	const reads = 50
	clk := vtime.NewSimClock()
	probe := &startProbe{}
	var baseline, promoted, rpcs int
	var failed error
	clk.Run(func() {
		cl, err := virtualHedgedReader(clk, func(net *transport.MemNetwork) transport.Transport {
			probe.net = net
			return probe
		})
		if err != nil {
			failed = err
			return
		}
		baseline = runtime.NumGoroutine()
		for i := 0; i < reads; i++ {
			rr, err := cl.Read(context.Background(), "k")
			if err != nil {
				failed = fmt.Errorf("read %d: %w", i, err)
				return
			}
			promoted += rr.Promoted
			rpcs += len(rr.Quorum) + rr.Promoted
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if promoted == 0 {
		t.Fatal("no read promoted a spare: the test no longer exercises hedging")
	}
	if got := probe.pending.Load(); got != int64(rpcs) {
		t.Errorf("%d calls pending, want all %d the reads made", got, rpcs)
	}
	if got := probe.calls.Load(); got != 0 {
		t.Errorf("%d calls made with Call; want 0", got)
	}
	if probe.peak > baseline {
		t.Errorf("%d goroutines at peak, %d before the first read: a started call ran on a goroutine of its own", probe.peak, baseline)
	}
	t.Logf("%d reads, %d calls (%d spares promoted): peak %d goroutines over a baseline of %d",
		reads, rpcs, promoted, probe.peak, baseline)
}

// BenchmarkVirtualHedgedRead prices one hedged read under a SimClock with
// every call started (TestHedgedVirtualReadStartsNoWorker's shape).
func BenchmarkVirtualHedgedRead(b *testing.B) {
	clk := vtime.NewSimClock()
	var failed error
	clk.Run(func() {
		cl, err := virtualHedgedReader(clk, nil)
		if err != nil {
			failed = err
			return
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Read(ctx, "k"); err != nil {
				failed = err
				return
			}
		}
		b.StopTimer()
	})
	if failed != nil {
		b.Fatal(failed)
	}
}
