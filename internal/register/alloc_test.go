package register

import (
	"context"
	"math/rand"
	"testing"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
)

// TestSteadyStateSamplingZeroAlloc is the acceptance gate for the O(k)
// sampling fast path: once the client's buffer freelist is warm, picking a
// quorum allocates nothing. This is the sampling component of a steady-state
// Read/Write (each operation recycles its buffer on completion).
func TestSteadyStateSamplingZeroAlloc(t *testing.T) {
	u, err := quorum.NewUniform(100, 23)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(Options{
		System:    u,
		Mode:      Benign,
		Transport: transport.NewMemNetwork(1),
		Rand:      rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := c.cells[0]
	// Warm the freelist with one pick, as the first operation would.
	s, q, spares := eng.pickWithSpares()
	if len(q) != 23 || spares != nil {
		t.Fatalf("pick: %d members, %d spares", len(q), len(spares))
	}
	eng.recycle(s)
	allocs := testing.AllocsPerRun(500, func() {
		s, _, _ := eng.pickWithSpares()
		eng.recycle(s)
	})
	if allocs != 0 {
		t.Errorf("steady-state quorum sampling: %v allocs/op, want 0", allocs)
	}
}

// TestRecycledQuorumBufferStaysCorrect drives sequential reads through a
// live MemNetwork cluster and checks that buffer reuse never corrupts the
// access set an operation is using: every result's Quorum is sorted,
// distinct and of quorum size while the result is current.
func TestRecycledQuorumBufferStaysCorrect(t *testing.T) {
	const n, q = 25, 13 // majority size: reads always intersect the write
	c := warmBenignClient(t, n, q)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		rr, err := c.Read(ctx, "k")
		if err != nil {
			t.Fatal(err)
		}
		if len(rr.Quorum) != q {
			t.Fatalf("read %d: quorum size %d, want %d", i, len(rr.Quorum), q)
		}
		for j := 1; j < len(rr.Quorum); j++ {
			if rr.Quorum[j] <= rr.Quorum[j-1] {
				t.Fatalf("read %d: quorum not sorted/distinct: %v", i, rr.Quorum)
			}
		}
		if !rr.Found || string(rr.Value) != "v" {
			t.Fatalf("read %d: %+v", i, rr)
		}
	}
}

// warmBenignClient is a single-writer benign client over n correct replicas
// on a zero-latency MemNetwork, with "k" written once.
func warmBenignClient(t *testing.T, n, q int) *Client {
	t.Helper()
	net := transport.NewMemNetwork(1)
	for i := 0; i < n; i++ {
		net.Register(quorum.ServerID(i), replica.New(quorum.ServerID(i)))
	}
	u, err := quorum.NewUniform(n, q)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(Options{
		System: u, Mode: Benign, Transport: net,
		Rand:  rand.New(rand.NewSource(3)),
		Clock: ts.NewClock(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBenignReadAllocs pins what a benign read allocates on a warm client at
// n=100, q=23 on MemNetwork: 3 objects — the result's Quorum, the boxed
// request, one captured variable — and none per member: a correct replica
// answers with the reply its store boxed when it adopted the write. Every
// call runs on the caller, so there is no reply channel; the reply queue and
// the kept replies are the operation's recycled scratch; the error map is
// made by the first error; the gather's callbacks stay on the stack. (It was
// 26 when each replica boxed its reply per read, 31 when each call was
// handed to a pool worker, 38 before the kept replies were one slice.)
func TestBenignReadAllocs(t *testing.T) {
	const n, q, want = 100, 23, 3
	c := warmBenignClient(t, n, q)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := c.Read(ctx, "k"); err != nil {
			t.Error(err)
		}
	})
	if allocs > want {
		t.Errorf("benign read: %v allocs, want at most %d", allocs, want)
	}
}

// TestBenignWriteAllocs is the write twin: 5 + q objects a write. The 5 are
// the client's — the value's copy, the boxed request, the result with its
// Quorum and Acked. The q are the members' stores, each boxing the read
// reply it will serve for this version when it adopts the write (the box a
// read used to make). The write replies themselves are one of two pre-boxed
// values. It was 5 when reads boxed, 15 on the pool.
func TestBenignWriteAllocs(t *testing.T) {
	const n, q = 100, 23
	const want = 5 + q
	c := warmBenignClient(t, n, q)
	ctx := context.Background()
	val := []byte("v")
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := c.Write(ctx, "k", val); err != nil {
			t.Error(err)
		}
	})
	if allocs > want {
		t.Errorf("benign write: %v allocs, want at most %d", allocs, want)
	}
}

// TestFirstScratchHoldsEveryCall: the first scratch a cell lends is sized
// for q + spares calls, so a short-lived client's first operation never
// grows its reply queue or its kept replies by doubling.
func TestFirstScratchHoldsEveryCall(t *testing.T) {
	const n, q, spares = 100, 23, 2
	c := hedgedClient(t, newCluster(t, n), uniformSystem(t, n, q), Options{Tuning: config.Tuning{Spares: spares}})
	s, _, _ := c.cells[0].pickWithSpares()
	if cap(s.local) != q+spares || cap(s.replies) != q+spares {
		t.Errorf("first scratch holds %d queued and %d kept replies, want %d each", cap(s.local), cap(s.replies), q+spares)
	}
	if _, err := c.Read(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	s, _, _ = c.cells[0].pickWithSpares()
	if cap(s.local) != q+spares || cap(s.replies) != q+spares {
		t.Errorf("after a read the scratch holds %d and %d, want %d each: it grew", cap(s.local), cap(s.replies), q+spares)
	}
}
