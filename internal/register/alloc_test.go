package register

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
)

// lendOneScratch makes every operation borrow one scratch until the test
// ends and returns it. The allocation gates count through it rather than
// the process pool: under the race detector sync.Pool drops a random
// quarter of what is put back, and an operation would now and then make
// its scratch anew.
func lendOneScratch(t *testing.T) *scratch {
	t.Helper()
	s := new(scratch)
	lendOnly(t, s)
	return s
}

// requireReturned fails unless c's last operation gave s back: recycle
// clears the reply buffers, so none of them still holds a reply.
func requireReturned(t *testing.T, c *Client, s *scratch) {
	t.Helper()
	c.WaitDrained()
	for _, r := range s.q.local {
		if !reflect.ValueOf(r).IsZero() {
			t.Fatalf("an operation kept its scratch: queued reply %+v", r)
		}
	}
	for _, r := range s.replies {
		if !reflect.ValueOf(r).IsZero() {
			t.Fatalf("an operation kept its scratch: kept reply %+v", r)
		}
	}
}

// TestSteadyStateSamplingZeroAlloc is the acceptance gate for the O(k)
// sampling fast path: once the operation's scratch is grown, picking a
// quorum allocates nothing. This is the sampling component of a steady-state
// Read/Write (each operation returns its scratch on completion).
func TestSteadyStateSamplingZeroAlloc(t *testing.T) {
	lendOneScratch(t)
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
	// Grow the scratch with one pick, as the first operation would.
	s := eng.pickWithSpares()
	q, spares := s.q.quorum, s.q.spares
	if len(q) != 23 || spares != nil {
		t.Fatalf("pick: %d members, %d spares", len(q), len(spares))
	}
	recycle(s)
	allocs := testing.AllocsPerRun(500, func() {
		recycle(eng.pickWithSpares())
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
// answers with the reply box its store holds for the write it adopted,
// which every member that adopted that write shares. Every call runs on the
// caller, so there is no reply channel; the reply queue and the kept
// replies are the operation's recycled scratch; the error map is made by
// the first error; the gather's callbacks stay on the stack. (It was 26
// when each replica boxed its reply per read, 31 when each call was handed
// to a pool worker, 38 before the kept replies were one slice.)
func TestBenignReadAllocs(t *testing.T) {
	const n, q, want = 100, 23, 3
	c := warmBenignClient(t, n, q)
	s := lendOneScratch(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := c.Read(ctx, "k"); err != nil {
			t.Error(err)
		}
	})
	if allocs > want {
		t.Errorf("benign read: %v allocs, want at most %d", allocs, want)
	}
	requireReturned(t, c, s)
}

// TestBenignWriteAllocs is the write twin: 6 objects a write, none per
// member. 5 are the client's — the value's copy, the boxed request, the
// result with its Quorum and Acked. The sixth is the read reply the members
// will serve for this version: on MemNetwork the q members adopt one request
// value back to back, and the first to adopt it boxes the reply that all q
// stores then hold (replica.boxed). The write replies themselves are one of
// two pre-boxed values. It was 5 + q with a box per member, 5 when reads
// boxed, 15 on the pool.
func TestBenignWriteAllocs(t *testing.T) {
	const n, q, want = 100, 23, 6
	c := warmBenignClient(t, n, q)
	s := lendOneScratch(t)
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
	requireReturned(t, c, s)
}

// TestFirstScratchHoldsEveryCall: a lent scratch holds at least q + spares
// calls, so a short-lived client's first operation never grows its reply
// queue or its kept replies by doubling, and a read does not grow it. A
// fresh scratch is grown to exactly q + spares; one last lent to a larger
// cell keeps what it has.
func TestFirstScratchHoldsEveryCall(t *testing.T) {
	const n, q, spares = 100, 23, 2
	c := hedgedClient(t, newCluster(t, n), uniformSystem(t, n, q), Options{Tuning: config.Tuning{Spares: spares}})
	larger := &scratch{
		q:       replyQueue{local: make([]callReply, 0, 2*(q+spares))},
		replies: make([]readReply, 0, 2*(q+spares)),
	}
	for _, row := range []struct {
		name string
		s    *scratch
		want int
	}{
		{"fresh", new(scratch), q + spares},
		{"larger", larger, 2 * (q + spares)},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := row.s
			lendOnly(t, s)
			recycle(c.cells[0].pickWithSpares())
			if cap(s.q.local) != row.want || cap(s.replies) != row.want {
				t.Errorf("a lent scratch holds %d queued and %d kept replies, want %d each", cap(s.q.local), cap(s.replies), row.want)
			}
			if _, err := c.Read(context.Background(), "k"); err != nil {
				t.Fatal(err)
			}
			if cap(s.q.local) != row.want || cap(s.replies) != row.want {
				t.Errorf("after a read the scratch holds %d and %d, want %d: it grew", cap(s.q.local), cap(s.replies), row.want)
			}
		})
	}
}
