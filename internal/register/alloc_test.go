package register

import (
	"context"
	"math/rand"
	"testing"

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
	q, spares := eng.pickWithSpares()
	if len(q) != 23 || spares != nil {
		t.Fatalf("pick: %d members, %d spares", len(q), len(spares))
	}
	eng.recyclePick(q)
	allocs := testing.AllocsPerRun(500, func() {
		q, _ := eng.pickWithSpares()
		eng.recyclePick(q)
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
		Rand:  rand.New(rand.NewSource(2)),
		Clock: ts.NewClock(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
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

// TestBenignReadAllocs pins what a benign read allocates on a warm client:
// no more than it did when its replies were kept in a slice of found
// replies and a by-server map (38 a read at n=100, q=23 on MemNetwork). One
// slice of readReply replaced both; the count is 31, of which 23 are the
// transport boxing each member's reply.
func TestBenignReadAllocs(t *testing.T) {
	const n, q, parentAllocs = 100, 23, 38
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
	ctx := context.Background()
	if _, err := c.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := c.Read(ctx, "k"); err != nil {
			t.Error(err)
		}
	})
	if allocs > parentAllocs {
		t.Errorf("benign read: %v allocs, want at most %d", allocs, parentAllocs)
	}
}
