package transport

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
)

// napClock is the wall clock with SleepCtx replaced by a counter, so a test
// can see which clock a call slept on, and for how long, without waiting.
type napClock struct {
	vtime.Clock
	slept atomic.Int64 // total nanoseconds asked for
}

func newNapClock() *napClock { return &napClock{Clock: vtime.Wall()} }

func (c *napClock) SleepCtx(_ context.Context, d time.Duration) error {
	c.slept.Add(int64(d))
	return nil
}

// constEcho echoes its request on either side and writes nothing shared.
type constEcho struct{}

func (constEcho) Handle(_ context.Context, req any) (any, error) { return req, nil }

func (constEcho) TryHandle(_ context.Context, req any) (any, bool, error) { return req, true, nil }

// genEcho answers every request with its own identity, on either side.
type genEcho struct{ id, gen int }

func (h genEcho) Handle(context.Context, any) (any, error) { return h, nil }

func (h genEcho) TryHandle(context.Context, any) (any, bool, error) { return h, true, nil }

// slotProbe accepts every request, on either side, and records how many of
// a semaphore's slots were held while it ran.
type slotProbe struct {
	sem  chan struct{}
	held int
}

func (p *slotProbe) Handle(context.Context, any) (any, error) {
	p.held = len(p.sem)
	return nil, nil
}

func (p *slotProbe) TryHandle(ctx context.Context, req any) (any, bool, error) {
	resp, err := p.Handle(ctx, req)
	return resp, true, err
}

// viewFixture is a network with server 1 registered, a counting clock
// installed and a view already published: what a setter under test changes.
type viewFixture struct {
	t   *testing.T
	n   *MemNetwork
	clk *napClock
}

func newViewFixture(t *testing.T) *viewFixture {
	f := &viewFixture{t: t, n: NewMemNetwork(1), clk: newNapClock()}
	f.n.SetClock(f.clk)
	f.n.Register(1, genEcho{1, 0})
	f.next(1, nil, false)
	return f
}

// next makes the next TryCall, Call and Start to a server and requires all
// three to observe the same configuration: TryCall declines iff declines,
// Start takes what TryCall declines unless a slot may have to be waited for
// (slotted), and whichever completes ends with want (nil: a reply,
// returned). It leaves a published view behind, so the setter that follows
// is seen only if it invalidates.
func (f *viewFixture) next(to quorum.ServerID, want error, declines bool, slotted ...bool) any {
	f.t.Helper()
	tryResp, ok, tryErr := f.n.TryCall(context.Background(), to, "x")
	resp, err := f.n.Call(context.Background(), to, "x")
	type result struct {
		resp any
		err  error
	}
	started := make(chan result, 1)
	startOK := f.n.Start(context.Background(), to, "x", func(resp any, err error) { started <- result{resp, err} })
	if ok == declines {
		f.t.Errorf("TryCall to %d: completed %v, want declined %v", to, ok, declines)
	}
	if startOK != (declines && len(slotted) == 0) {
		f.t.Errorf("Start to %d: taken %v, want %v", to, startOK, declines && len(slotted) == 0)
	}
	if !errors.Is(err, want) {
		f.t.Errorf("Call to %d: err %v, want %v", to, err, want)
	}
	if ok && (!errors.Is(tryErr, want) || tryResp != resp) {
		f.t.Errorf("TryCall to %d: %v, %v; Call: %v, %v", to, tryResp, tryErr, resp, err)
	}
	if startOK {
		if r := <-started; !errors.Is(r.err, want) || r.resp != resp {
			f.t.Errorf("Start to %d: %v, %v; Call: %v, %v", to, r.resp, r.err, resp, err)
		}
	}
	if f.n.view.Load() == nil {
		f.t.Errorf("no view published after a call")
	}
	return resp
}

// TestMemNetworkSetterIsSeenByTheNextCall: a call reads a published copy of
// the configuration, so every method that writes the configuration has to
// invalidate the copy. One row per such method, each run against a network
// whose view is fresh; the reflect walk at the end fails the test when
// *MemNetwork grows a method that has no row.
func TestMemNetworkSetterIsSeenByTheNextCall(t *testing.T) {
	rows := map[string]func(f *viewFixture){
		"Register": func(f *viewFixture) {
			f.n.Register(1, genEcho{1, 1})
			f.n.Register(2, genEcho{2, 0})
			if got := f.next(1, nil, false); got != (genEcho{1, 1}) {
				f.t.Errorf("re-registered server answered as %v", got)
			}
			if got := f.next(2, nil, false); got != (genEcho{2, 0}) {
				f.t.Errorf("new server answered as %v", got)
			}
		},
		"Deregister": func(f *viewFixture) {
			f.n.Deregister(1)
			f.next(1, ErrUnknownServer, false)
		},
		"Crash": func(f *viewFixture) {
			f.n.Crash(1)
			f.next(1, ErrCrashed, false)
		},
		"Recover": func(f *viewFixture) {
			f.n.Crash(1)
			f.next(1, ErrCrashed, false)
			f.n.Recover(1)
			f.next(1, nil, false)
		},
		"SetDropProb": func(f *viewFixture) {
			f.n.SetDropProb(1)
			f.next(1, ErrDropped, false)
		},
		"SetLatency": func(f *viewFixture) {
			f.n.SetLatency(time.Millisecond, time.Millisecond)
			f.next(1, nil, true)
			if got := f.clk.slept.Load(); got != int64(time.Millisecond) {
				f.t.Errorf("Call slept %v, want 1ms", time.Duration(got))
			}
		},
		"SetServerLatency": func(f *viewFixture) {
			f.n.SetServerLatency(1, 2*time.Millisecond, 2*time.Millisecond)
			f.next(1, nil, true)
			if got := f.clk.slept.Load(); got != int64(2*time.Millisecond) {
				f.t.Errorf("Call slept %v, want 2ms", time.Duration(got))
			}
		},
		"SetServerConcurrency": func(f *viewFixture) {
			probe := new(slotProbe)
			f.n.Register(1, probe)
			f.next(1, nil, false)
			f.n.SetServerConcurrency(1)
			f.n.mu.Lock()
			probe.sem = f.n.servers[1].sem
			f.n.mu.Unlock()
			f.next(1, nil, true, true)
			if probe.held != 1 {
				f.t.Errorf("the handler ran with %d slots held, want 1", probe.held)
			}
		},
		"SetPartition": func(f *viewFixture) {
			f.n.SetPartition(map[quorum.ServerID]int{1: 1})
			f.next(1, ErrPartitioned, false)
		},
		"ClearPartition": func(f *viewFixture) {
			f.n.SetPartition(map[quorum.ServerID]int{1: 1})
			f.next(1, ErrPartitioned, false)
			f.n.ClearPartition()
			f.next(1, nil, false)
		},
		"SetLinkHook": func(f *viewFixture) {
			hook := &recordingHook{fault: CallFault{Drop: true}}
			f.n.SetLinkHook(hook)
			f.next(1, ErrDropped, true)
			if got := hook.calls.Load(); got != 2 {
				f.t.Errorf("hook consulted %d times by one declined TryCall, one Call and one Start", got)
			}
		},
		"SetClock": func(f *viewFixture) {
			f.n.SetLatency(time.Millisecond, time.Millisecond)
			f.next(1, nil, true)
			other := newNapClock()
			f.n.SetClock(other)
			f.next(1, nil, true)
			if a, b := f.clk.slept.Load(), other.slept.Load(); a != int64(time.Millisecond) || b != int64(time.Millisecond) {
				f.t.Errorf("slept %v on the old clock and %v on the new, want 1ms each", time.Duration(a), time.Duration(b))
			}
		},
	}
	for name, row := range rows {
		t.Run(name, func(t *testing.T) { row(newViewFixture(t)) })
	}

	readers := map[string]bool{"Call": true, "TryCall": true, "Start": true, "CrashedCount": true}
	typ := reflect.TypeOf((*MemNetwork)(nil))
	methods := make(map[string]bool)
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		methods[name] = true
		if rows[name] == nil && !readers[name] {
			t.Errorf("(*MemNetwork).%s has no row: if it writes the configuration, show here that the next call sees it", name)
		}
	}
	for name := range rows {
		if !methods[name] {
			t.Errorf("row %q names no method of *MemNetwork", name)
		}
	}
}

// TestMemNetworkGoldenReplay pins the counter hash: the drop verdicts and
// latency draws of 1 000 sequential calls, per destination, are a function
// of (seed, destination, per-destination call count) and nothing else, so
// they equal what the commit before the published view produced. A change
// to this digest changes every same-seed history in the tree.
func TestMemNetworkGoldenReplay(t *testing.T) {
	const (
		servers = 8
		calls   = 1000
		// Recorded at ad3060b, the commit before calls read a published view.
		wantDigest = uint64(0xba1e54a999870434)
		wantDrops  = 311
		wantTotal  = 1399637236 * time.Nanosecond
	)
	wantFirst := []string{"0:1.054317ms", "5:1.367224ms", "2:2.086759ms", "7:drop", "4:2.685184ms", "1:2.408931ms", "6:2.319055ms", "3:2.411937ms"}
	clk := vtime.NewSimClock()
	clk.Run(func() {
		n := NewMemNetwork(42)
		n.SetClock(clk)
		for id := quorum.ServerID(0); id < servers; id++ {
			n.Register(id, plainEcho())
		}
		n.SetDropProb(0.3)
		n.SetLatency(time.Millisecond, 3*time.Millisecond)
		digest := fnv.New64a()
		var first []string
		drops := 0
		for i := 0; i < calls; i++ {
			to := quorum.ServerID(i * 5 % servers)
			before := clk.Elapsed()
			_, err := n.Call(context.Background(), to, i)
			if err != nil && !errors.Is(err, ErrDropped) {
				t.Errorf("call %d: %v", i, err)
				return
			}
			line := fmt.Sprintf("%d:%v", to, clk.Elapsed()-before)
			if err != nil {
				drops++
				line = fmt.Sprintf("%d:drop", to)
			}
			fmt.Fprintln(digest, line)
			if i < 8 {
				first = append(first, line)
			}
		}
		if got := digest.Sum64(); got != wantDigest || drops != wantDrops || clk.Elapsed() != wantTotal || !reflect.DeepEqual(first, wantFirst) {
			t.Errorf("replay moved:\n got digest %#x, %d drops, %v in all, first %q\nwant digest %#x, %d drops, %v in all, first %q",
				got, drops, clk.Elapsed(), first, wantDigest, wantDrops, wantTotal, wantFirst)
		}
	})
}

// TestMemNetworkReconfigurationHammer: callers mixing Call and TryCall over
// 16 servers while one goroutine walks every server through register →
// crash → straggle → recover → leave, again and again. Every setter
// replaces a whole configuration, so whatever a call observes must be the
// state after some whole number of setters — one that had finished when the
// call started, or one that had started when it returned — and never a
// mixture (a rejoined id answering as its new handler under the departed
// one's crash flag). Run under -race.
func TestMemNetworkReconfigurationHammer(t *testing.T) {
	const (
		servers = 16
		cycles  = 30
		callers = 4
	)
	n := NewMemNetwork(1)
	n.SetClock(newNapClock())
	// started[id] / finished[id]: setters on id begun / returned so far.
	var started, finished [servers]atomic.Int64
	step := func(id quorum.ServerID, s int64) {
		started[id].Add(1)
		switch s % 5 {
		case 1:
			n.Register(id, genEcho{int(id), int(s / 5)})
		case 2:
			n.Crash(id)
		case 3:
			n.SetServerLatency(id, time.Nanosecond, time.Nanosecond)
		case 4:
			n.Recover(id)
		case 0:
			n.Deregister(id)
		}
		finished[id].Add(1)
	}
	// consistent reports whether a result is what the state after s setters
	// on id produces.
	consistent := func(id quorum.ServerID, s int64, try bool, resp any, ok bool, err error) bool {
		alive := ok && err == nil && resp == genEcho{int(id), int(s / 5)}
		switch s % 5 {
		case 0:
			return ok && errors.Is(err, ErrUnknownServer)
		case 1:
			return alive
		case 2:
			return ok && errors.Is(err, ErrCrashed)
		case 3: // crashed, and a straggler: TryCall declines on the link alone
			if try {
				return !ok
			}
			return errors.Is(err, ErrCrashed)
		default:
			if try {
				return !ok
			}
			return alive
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := g; !stop.Load(); i++ {
				id := quorum.ServerID(i * 7 % servers)
				try := i/servers%2 == 0
				lo := finished[id].Load()
				var (
					resp any
					ok   = true
					err  error
				)
				if try {
					resp, ok, err = n.TryCall(ctx, id, "x")
				} else {
					resp, err = n.Call(ctx, id, "x")
				}
				hi := started[id].Load()
				seen := false
				for s := lo; s <= hi && !seen; s++ {
					seen = consistent(id, s, try, resp, ok, err)
				}
				if !seen {
					t.Errorf("server %d, try %v: %v, %v, %v matches no state between setter %d and %d", id, try, resp, ok, err, lo, hi)
					return
				}
			}
		}(g)
	}
	for s := int64(1); s <= 5*cycles; s++ {
		for id := quorum.ServerID(0); id < servers; id++ {
			step(id, s)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestRegisterThousandRebuildsOnce: setters invalidate, the first call
// rebuilds — so standing up n servers copies the configuration once, not n
// times — and a call on a fresh view allocates nothing, as before.
func TestRegisterThousandRebuildsOnce(t *testing.T) {
	n := NewMemNetwork(1)
	for id := quorum.ServerID(0); id < 1000; id++ {
		n.Register(id, constEcho{})
	}
	builds := func() int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.builds
	}
	if got := builds(); got != 0 {
		t.Errorf("%d views built before any call", got)
	}
	ctx := context.Background()
	for id := quorum.ServerID(0); id < 1000; id++ {
		if resp, ok, err := n.TryCall(ctx, id, "x"); !ok || err != nil || resp != "x" {
			t.Fatalf("server %d: %v, %v, %v", id, resp, ok, err)
		}
	}
	if got := builds(); got != 1 {
		t.Errorf("%d views built for 1000 Registers and 1000 calls, want 1", got)
	}
	var req any = "x"
	if allocs := testing.AllocsPerRun(1000, func() { n.TryCall(ctx, 7, req) }); allocs != 0 { //nolint:errcheck // counting allocations
		t.Errorf("steady-state TryCall allocates %v times, want 0", allocs)
	}
}

// TestMemNetworkSparseIDs: a view's links are a slice indexed by id, as long
// as the highest id mentioned. Registered ids on either side of a gap
// answer; an id in the gap, past the end or negative is unknown to Call and
// TryCall alike, and finding that out allocates nothing. A negative id
// cannot be registered.
func TestMemNetworkSparseIDs(t *testing.T) {
	n := NewMemNetwork(1)
	var registered []quorum.ServerID
	for id := quorum.ServerID(0); id < 100; id++ {
		if id < 25 || id >= 75 {
			n.Register(id, constEcho{})
			registered = append(registered, id)
		}
	}
	ctx := context.Background()
	var req any = "x"
	for _, id := range registered {
		if resp, ok, err := n.TryCall(ctx, id, req); !ok || err != nil || resp != "x" {
			t.Fatalf("server %d: %v, %v, %v", id, resp, ok, err)
		}
	}
	if got := len(n.view.Load().links); got != 100 {
		t.Errorf("the view holds %d links, want 100 (highest id + 1)", got)
	}
	for _, id := range []quorum.ServerID{25, 74, 100, 1 << 40, -1, -1 << 40} {
		if _, err := n.Call(ctx, id, req); !errors.Is(err, ErrUnknownServer) {
			t.Errorf("Call(%d): %v, want ErrUnknownServer", id, err)
		}
		if _, ok, err := n.TryCall(ctx, id, req); !ok || !errors.Is(err, ErrUnknownServer) {
			t.Errorf("TryCall(%d): ok %v, %v; want ErrUnknownServer", id, ok, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			n.Call(ctx, id, req)    //nolint:errcheck // counting allocations
			n.TryCall(ctx, id, req) //nolint:errcheck // counting allocations
		})
		if allocs != 0 {
			t.Errorf("a call to unknown id %d allocates %v times, want 0", id, allocs)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Register(-1) did not panic")
		}
	}()
	n.Register(-1, constEcho{})
}

// TestDeregisterKeepsCallSeq: the per-destination call counter survives
// Deregister and reaches the rejoined member's link in the next view, so a
// rejoin continues the departed server's fault sequence instead of
// replaying it.
func TestDeregisterKeepsCallSeq(t *testing.T) {
	n := NewMemNetwork(1)
	n.Register(80, constEcho{})
	n.SetDropProb(0.5) // drops are counted: every call draws a number
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		n.Call(ctx, 80, "x") //nolint:errcheck // drawing sequence numbers
	}
	n.Deregister(80)
	if _, err := n.Call(ctx, 80, "x"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("after Deregister: %v", err)
	}
	n.Register(80, constEcho{})
	n.Call(ctx, 80, "x") //nolint:errcheck // one more number
	if got := n.view.Load().links[80].callSeq.Load(); got != 11 {
		t.Errorf("the rejoined link's counter is at %d, want 11", got)
	}
}

// BenchmarkMemNetworkTryCallParallel prices one visit of a fan-out: run it
// with -cpu 1,2 and read ns/call. A call that writes a shared cache line (a
// reader count) costs more per call on two processors than on one; a call
// that only loads must not. One iteration is a sweep of all 100 servers, so
// testing.PB's own per-iteration counter — two PBs can share a cache line —
// is a hundredth of what is measured, not a third.
func BenchmarkMemNetworkTryCallParallel(b *testing.B) {
	const servers = 100
	n := NewMemNetwork(1)
	for id := quorum.ServerID(0); id < servers; id++ {
		n.Register(id, constEcho{})
	}
	ctx := context.Background()
	var req any = "x"
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for id := quorum.ServerID(0); id < servers; id++ {
				if _, ok, err := n.TryCall(ctx, id, req); !ok || err != nil {
					b.Errorf("server %d: ok %v, err %v", id, ok, err)
					return
				}
			}
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*servers), "ns/call")
}
