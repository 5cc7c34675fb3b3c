package register

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/ring"
	"pqs/internal/transport"
	"pqs/internal/ts"
)

// newCellFixture builds a MemNetwork with cells*n replicas and a router
// client over them (majority quorums, so reads always intersect writes).
func newCellFixture(t *testing.T, cells, n, q int, seed int64) (*Client, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetwork(seed)
	for i := 0; i < cells*n; i++ {
		net.Register(quorum.ServerID(i), replica.New(quorum.ServerID(i)))
	}
	u, err := quorum.NewUniform(n, q)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(Options{
		System: u, Mode: Benign, Transport: net,
		Rand:  rand.New(rand.NewSource(seed)),
		Clock: ts.NewClock(1),
		Cells: cells,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, net
}

func TestMultiCellRoutesToOwningCellOnly(t *testing.T) {
	const cells, n, q = 4, 10, 6
	c, _ := newCellFixture(t, cells, n, q, 1)
	if c.Cells() != cells {
		t.Fatalf("Cells() = %d, want %d", c.Cells(), cells)
	}
	ctx := context.Background()
	used := make([]bool, cells)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i)
		cell := c.CellFor(key)
		if cell < 0 || cell >= cells {
			t.Fatalf("CellFor(%q) = %d outside [0,%d)", key, cell, cells)
		}
		used[cell] = true
		wr, err := c.Write(ctx, key, []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		// Every quorum member's GLOBAL id must be inside the owning cell's
		// server slice [cell*n, (cell+1)*n); the engine reports local ids.
		for _, id := range wr.Quorum {
			if id < 0 || int(id) >= n {
				t.Fatalf("write %q: local id %d outside cell universe [0,%d)", key, id, n)
			}
		}
		rr, err := c.Read(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Found || string(rr.Value) != key {
			t.Fatalf("read %q: %+v", key, rr)
		}
	}
	for i, u := range used {
		if !u {
			t.Errorf("cell %d never used across 40 keys (ring imbalance)", i)
		}
	}
	// Same seed, same member set: routing is a pure function.
	c2, _ := newCellFixture(t, cells, n, q, 1)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i)
		if c.CellFor(key) != c2.CellFor(key) {
			t.Fatalf("routing not deterministic for %q", key)
		}
	}
}

func TestMultiCellIsolatesCellFailure(t *testing.T) {
	const cells, n, q = 4, 10, 6
	c, net := newCellFixture(t, cells, n, q, 2)
	ctx := context.Background()
	// Find a key in cell 0 and one elsewhere.
	var in0, out0 string
	for i := 0; in0 == "" || out0 == ""; i++ {
		key := fmt.Sprintf("k-%d", i)
		if c.CellFor(key) == 0 {
			if in0 == "" {
				in0 = key
			}
		} else if out0 == "" {
			out0 = key
		}
	}
	if _, err := c.Write(ctx, out0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Crash ALL of cell 0's servers: keys routed there fail, others don't.
	for i := 0; i < n; i++ {
		net.Crash(quorum.ServerID(i))
	}
	if _, err := c.Write(ctx, in0, []byte("x")); err == nil {
		t.Fatalf("write to fully-crashed cell 0 succeeded")
	}
	rr, err := c.Read(ctx, out0)
	if err != nil || !rr.Found || string(rr.Value) != "ok" {
		t.Fatalf("healthy cell affected by cell 0 crash: %v %+v", err, rr)
	}
}

func TestViewApplyReroutesDepartedCell(t *testing.T) {
	const cells, n, q = 4, 10, 6
	c, _ := newCellFixture(t, cells, n, q, 3)
	before := make(map[string]int)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		before[key] = c.CellFor(key)
	}
	// Cell 2 leaves. Only its keys move; no key routes to 2 afterwards.
	if err := c.ApplyView(ring.View{Version: 2, Members: []int{0, 1, 3}}); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for key, was := range before {
		now := c.CellFor(key)
		if now == 2 {
			t.Fatalf("key %q still routes to departed cell 2", key)
		}
		if was != 2 && now != was {
			t.Fatalf("key %q moved from surviving cell %d to %d", key, was, now)
		}
		if was == 2 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by cell 2")
	}
	// A stale advertisement must not roll the view back.
	if err := c.ApplyView(ring.View{Version: 1, Members: []int{0, 1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if got := c.View().Version; got != 2 {
		t.Fatalf("stale view applied: version %d, want 2", got)
	}
	// A view naming a cell we have no engines for is rejected.
	if err := c.ApplyView(ring.View{Version: 3, Members: []int{0, 4}}); err == nil {
		t.Fatal("view with out-of-range member accepted")
	}
}

func TestAdvertiseAndRefreshViewPropagates(t *testing.T) {
	const cells, n, q = 4, 10, 6
	net := transport.NewMemNetwork(4)
	for i := 0; i < cells*n; i++ {
		net.Register(quorum.ServerID(i), replica.New(quorum.ServerID(i)))
	}
	u, err := quorum.NewUniform(n, q)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) *Client {
		c, err := NewClient(Options{
			System: u, Mode: Benign, Transport: net,
			Rand:  rand.New(rand.NewSource(seed)),
			Clock: ts.NewClock(uint32(seed)),
			Cells: cells,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(1), mk(2)
	ctx := context.Background()
	want := ring.View{Version: 7, Members: []int{0, 1, 3}}
	if err := a.AdvertiseView(ctx, want); err != nil {
		t.Fatal(err)
	}
	got, err := b.RefreshView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || len(got.Members) != len(want.Members) {
		t.Fatalf("refreshed view %+v, want %+v", got, want)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		if b.CellFor(key) == 2 {
			t.Fatalf("key %q routes to departed cell 2 after refresh", key)
		}
		if b.CellFor(key) != a.CellFor(key) {
			t.Fatalf("clients disagree on %q after view propagation", key)
		}
	}
}

func TestSingleCellHasNoRingView(t *testing.T) {
	c, _ := newCellFixture(t, 1, 10, 6, 5)
	if err := c.ApplyView(ring.View{Version: 2, Members: []int{0}}); err == nil {
		t.Fatal("single-cell ApplyView should fail")
	}
	if _, err := c.RefreshView(context.Background()); err == nil {
		t.Fatal("single-cell RefreshView should fail")
	}
	if v := c.View(); v.Version != 0 || len(v.Members) != 0 {
		t.Fatalf("single-cell view should be zero, got %+v", v)
	}
}

// TestApplyViewChecksVersionFirst: a refresh that finds the view it already
// routes by builds no ring, and a view whose ring could not be built is
// refused only when it is news. A hostile ViewKey entry is at worst one
// refused view, never an allocation per member per vnode on every refresh.
func TestApplyViewChecksVersionFirst(t *testing.T) {
	c, _ := newCellFixture(t, 4, 10, 6, 6)
	members := []int{0, 1, 2, 3}
	current := ring.View{Version: 5, Members: members, Vnodes: ring.MaxVnodes}
	if err := c.ApplyView(current); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.ApplyView(current); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("re-applying the current view allocates %v times: it built a ring", allocs)
	}
	hostile := ring.View{Version: 4, Members: members, Vnodes: ring.MaxVnodes + 1}
	if err := c.ApplyView(hostile); err != nil {
		t.Errorf("a stale view was judged, not ignored: %v", err)
	}
	hostile.Version = 6
	if err := c.ApplyView(hostile); err == nil {
		t.Error("a newer view with more than MaxVnodes was adopted")
	}
	if got := c.View().Version; got != 5 {
		t.Errorf("routing by view %d, want 5", got)
	}
}

// TestCellStatsSumToStats: on a multi-cell client every operation is
// counted by the cell its key routes to, so the per-cell counters add up to
// the client's.
func TestCellStatsSumToStats(t *testing.T) {
	const cells, n, q = 3, 10, 5
	net := transport.NewMemNetwork(4)
	for i := 0; i < cells*n; i++ {
		net.Register(quorum.ServerID(i), replica.New(quorum.ServerID(i)))
	}
	for i := 0; i < cells; i++ {
		net.Crash(quorum.ServerID(i * n)) // a failed member promotes a spare
	}
	u, err := quorum.NewUniform(n, q)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(Options{
		System: u, Mode: Benign, Transport: net,
		Rand: rand.New(rand.NewSource(4)), Clock: ts.NewClock(1), Cells: cells,
		Tuning: config.Tuning{Spares: 2, W: q - 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("k-%d", i)
		if _, err := c.Write(ctx, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitDrained()
	var sum AccessStats
	busy := 0
	for i := 0; i < cells; i++ {
		s := c.CellStats(i)
		if s.SparesPromoted > 0 {
			busy++
		}
		sum.SparesPromoted += s.SparesPromoted
		sum.EarlyCompletions += s.EarlyCompletions
		sum.LateReplies += s.LateReplies
		sum.LateRepairs += s.LateRepairs
		sum.ServerDownFastFails += s.ServerDownFastFails
		sum.SigChecks += s.SigChecks
		sum.SigReused += s.SigReused
		sum.LatencySamples += s.LatencySamples
	}
	if busy < 2 {
		t.Fatalf("%d cells promoted a spare: the keys did not spread over the cells", busy)
	}
	if got := c.Stats(); got != sum || got.EarlyCompletions == 0 {
		t.Errorf("Stats() = %+v, the cells sum to %+v (early completions must be counted)", got, sum)
	}
}
