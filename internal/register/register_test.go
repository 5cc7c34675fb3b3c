package register

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"pqs/internal/core"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/sv"
	"pqs/internal/transport"
	"pqs/internal/ts"
)

type cluster struct {
	net  *transport.MemNetwork
	reps []*replica.Replica
}

// callOnly hides a transport's optional capabilities, Start above all:
// what is left is a transport any of whose calls might park, as far as the
// engine can tell, so every call is handed to a worker
// (transport.StarterOf) — the path bench's tracing decorators take.
type callOnly struct{ transport.Transport }

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{net: transport.NewMemNetwork(42)}
	for i := 0; i < n; i++ {
		r := replica.New(quorum.ServerID(i))
		c.reps = append(c.reps, r)
		c.net.Register(quorum.ServerID(i), r)
	}
	return c
}

func majoritySystem(t *testing.T, n int) quorum.System {
	t.Helper()
	s, err := quorum.NewMajority(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func benignClient(t *testing.T, c *cluster, sys quorum.System, writer uint32) *Client {
	t.Helper()
	cl, err := NewClient(Options{
		System:    sys,
		Mode:      Benign,
		Transport: c.net,
		Rand:      rand.New(rand.NewSource(int64(writer) + 1)),
		Clock:     ts.NewClock(writer),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestNewClientValidation(t *testing.T) {
	c := newCluster(t, 3)
	sys := majoritySystem(t, 3)
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		opts Options
	}{
		{"no system", Options{Mode: Benign, Transport: c.net, Rand: rng}},
		{"no transport", Options{System: sys, Mode: Benign, Rand: rng}},
		{"no rand", Options{System: sys, Mode: Benign, Transport: c.net}},
		{"bad mode", Options{System: sys, Mode: 0, Transport: c.net, Rand: rng}},
		{"dissemination without registry", Options{System: sys, Mode: Dissemination, Transport: c.net, Rand: rng}},
		{"masking without k", Options{System: sys, Mode: Masking, Transport: c.net, Rand: rng}},
	}
	for _, tc := range cases {
		if _, err := NewClient(tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestMaskingTakesKFromTheSystem: in Masking mode a zero Options.K is the
// System's K() (core.Masking carries its threshold), and an explicit K wins.
func TestMaskingTakesKFromTheSystem(t *testing.T) {
	c := newCluster(t, 10)
	sys, err := core.NewMaskingWithK(10, 6, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ k, want int }{{0, 4}, {3, 3}} {
		cl, err := NewClient(Options{
			System: sys, Mode: Masking, K: tc.k, Transport: c.net,
			Rand: rand.New(rand.NewSource(1)), Clock: ts.NewClock(1),
		})
		if err != nil {
			t.Fatalf("K=%d: %v", tc.k, err)
		}
		if got := cl.cells[0].opts.K; got != tc.want {
			t.Errorf("Options.K %d: client threshold %d, want %d", tc.k, got, tc.want)
		}
	}
}

func TestBenignReadYourWrite(t *testing.T) {
	c := newCluster(t, 10)
	cl := benignClient(t, c, majoritySystem(t, 10), 1)
	ctx := context.Background()
	for i, val := range []string{"v1", "v2", "v3"} {
		wr, err := cl.Write(ctx, "x", []byte(val))
		if err != nil {
			t.Fatal(err)
		}
		if len(wr.Acked) != len(wr.Quorum) {
			t.Fatalf("write %d: %d/%d acked", i, len(wr.Acked), len(wr.Quorum))
		}
		if wr.Stamp.Counter != uint64(i+1) {
			t.Fatalf("write %d stamp %v", i, wr.Stamp)
		}
		rr, err := cl.Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		// Majority quorums always intersect: the read is guaranteed fresh.
		if !rr.Found || string(rr.Value) != val {
			t.Fatalf("read after write %q returned %+v", val, rr)
		}
		if rr.Stamp != wr.Stamp {
			t.Fatalf("read stamp %v != write stamp %v", rr.Stamp, wr.Stamp)
		}
		if rr.Vouchers < 1 || rr.Replies != len(rr.Quorum) {
			t.Fatalf("diagnostics: %+v", rr)
		}
	}
}

func TestReadMissingKey(t *testing.T) {
	c := newCluster(t, 5)
	cl := benignClient(t, c, majoritySystem(t, 5), 1)
	rr, err := cl.Read(context.Background(), "never-written")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Found {
		t.Errorf("missing key reported found: %+v", rr)
	}
	if rr.Replies != len(rr.Quorum) {
		t.Errorf("replies %d != quorum %d", rr.Replies, len(rr.Quorum))
	}
}

func TestWriteWithoutClock(t *testing.T) {
	c := newCluster(t, 3)
	cl, err := NewClient(Options{
		System:    majoritySystem(t, 3),
		Mode:      Benign,
		Transport: c.net,
		Rand:      rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(context.Background(), "x", []byte("v")); err == nil {
		t.Error("write without clock must fail")
	}
	// Reading is fine without a clock.
	if _, err := cl.Read(context.Background(), "x"); err != nil {
		t.Errorf("read without clock: %v", err)
	}
}

func TestPartialWrite(t *testing.T) {
	c := newCluster(t, 5)
	sys := majoritySystem(t, 5) // quorums of size 3
	c.net.Crash(0)
	c.net.Crash(1)

	strict, err := NewClient(Options{
		System: sys, Mode: Benign, Transport: c.net,
		Rand:  rand.New(rand.NewSource(3)),
		Clock: ts.NewClock(1), RequireFullWrite: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With servers 0 and 1 down, some quorum picks hit them; retry until we
	// observe a partial write. Seeded rand makes this deterministic.
	sawPartial := false
	for i := 0; i < 50 && !sawPartial; i++ {
		_, err := strict.Write(context.Background(), "x", []byte("v"))
		if errors.Is(err, ErrPartialWrite) {
			sawPartial = true
		} else if err != nil {
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	if !sawPartial {
		t.Error("never observed ErrPartialWrite despite crashed members")
	}

	// Best-effort client tolerates the same crashes.
	loose := benignClient(t, c, sys, 2)
	for i := 0; i < 20; i++ {
		wr, err := loose.Write(context.Background(), "x", []byte("v"))
		if err != nil {
			t.Fatalf("best-effort write failed: %v", err)
		}
		if len(wr.Acked)+len(wr.Errs) != len(wr.Quorum) {
			t.Fatalf("accounting broken: %+v", wr)
		}
	}
}

func TestAllCrashed(t *testing.T) {
	c := newCluster(t, 4)
	for i := 0; i < 4; i++ {
		c.net.Crash(quorum.ServerID(i))
	}
	cl := benignClient(t, c, majoritySystem(t, 4), 1)
	if _, err := cl.Write(context.Background(), "x", []byte("v")); !errors.Is(err, ErrNoReplies) {
		t.Errorf("write err = %v, want ErrNoReplies", err)
	}
	if _, err := cl.Read(context.Background(), "x"); !errors.Is(err, ErrNoReplies) {
		t.Errorf("read err = %v, want ErrNoReplies", err)
	}
}

// byzSetup builds a 10-server cluster where servers 0..b-1 are Byzantine
// forgers colluding on value "forged" with an enormous timestamp.
func byzSetup(t *testing.T, b int, forgedSig []byte) *cluster {
	t.Helper()
	c := newCluster(t, 10)
	forged := replica.Forger{
		Value: []byte("forged"),
		Stamp: ts.Stamp{Counter: 1 << 40, Writer: 99},
		Sig:   forgedSig,
	}
	for i := 0; i < b; i++ {
		c.reps[i].SetBehavior(forged)
	}
	return c
}

type zeroReader struct{ b byte }

func (z *zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = z.b
		z.b++
	}
	return len(p), nil
}

func TestDisseminationFiltersForgeries(t *testing.T) {
	kp, err := sv.GenerateKey(&zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	reg := sv.NewRegistry()
	if err := reg.Add(1, kp.Public); err != nil {
		t.Fatal(err)
	}

	b := 3
	c := byzSetup(t, b, []byte("not a real signature"))
	sys, err := quorum.NewDissemThreshold(10, b) // quorums of size 7, overlap >= 4 > b
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(Options{
		System: sys, Mode: Dissemination, Transport: c.net,
		Rand:     rand.New(rand.NewSource(5)),
		Clock:    ts.NewClock(1),
		Signer:   kp.Private,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Write(ctx, "x", []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	// Strict dissemination quorums guarantee a correct up-to-date server in
	// every read quorum, so every read must return the genuine value.
	for i := 0; i < 50; i++ {
		rr, err := cl.Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Found || string(rr.Value) != "genuine" {
			t.Fatalf("read %d returned %+v", i, rr)
		}
		if rr.Discarded == 0 && quorumHitsByz(rr.Quorum, b) {
			t.Fatalf("read %d: quorum hit byzantine servers but nothing was discarded", i)
		}
	}
}

func quorumHitsByz(q []quorum.ServerID, b int) bool {
	for _, id := range q {
		if int(id) < b {
			return true
		}
	}
	return false
}

func TestBenignModeIsFooledByForgery(t *testing.T) {
	// The contrast case motivating Section 4: without verification, a single
	// forged huge-timestamp reply wins the benign protocol.
	b := 3
	c := byzSetup(t, b, nil)
	cl := benignClient(t, c, majoritySystem(t, 10), 1)
	ctx := context.Background()
	if _, err := cl.Write(ctx, "x", []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	fooled := false
	for i := 0; i < 20 && !fooled; i++ {
		rr, err := cl.Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if string(rr.Value) == "forged" {
			fooled = true
		}
	}
	if !fooled {
		t.Error("benign protocol was never fooled; Byzantine injection is not working")
	}
}

func TestMaskingOutvotesColluders(t *testing.T) {
	b := 3
	c := byzSetup(t, b, nil)
	full, err := quorum.NewUniform(10, 10) // full-universe quorums: deterministic counts
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(Options{
		System: full, Mode: Masking, K: b + 1, Transport: c.net,
		Rand:  rand.New(rand.NewSource(6)),
		Clock: ts.NewClock(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Write(ctx, "x", []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	rr, err := cl.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Found || string(rr.Value) != "genuine" {
		t.Fatalf("masking read returned %+v", rr)
	}
	if rr.Vouchers != 10-b {
		t.Errorf("vouchers = %d, want %d", rr.Vouchers, 10-b)
	}
	if rr.Discarded != b {
		t.Errorf("discarded = %d, want %d (the colluders)", rr.Discarded, b)
	}
}

func TestMaskingThresholdTooLowIsFooled(t *testing.T) {
	// With k <= the number of colluders, the forged candidate passes the
	// threshold and its huge timestamp wins: exactly the failure mode
	// Definition 5.1 guards against when k is chosen per Section 5.3.
	b := 3
	c := byzSetup(t, b, nil)
	full, err := quorum.NewUniform(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(Options{
		System: full, Mode: Masking, K: b, Transport: c.net,
		Rand:  rand.New(rand.NewSource(7)),
		Clock: ts.NewClock(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Write(ctx, "x", []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	rr, err := cl.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(rr.Value) != "forged" {
		t.Fatalf("expected the forged value to win at k=%d, got %+v", b, rr)
	}
}

func TestMaskingBottom(t *testing.T) {
	// A value below threshold yields ⊥ (Found=false, no error): write to
	// only two replicas directly, then read with k=4.
	c := newCluster(t, 10)
	for i := 0; i < 2; i++ {
		c.reps[i].Store().Apply("x", replica.Entry{Value: []byte("rare"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})
	}
	full, err := quorum.NewUniform(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(Options{
		System: full, Mode: Masking, K: 4, Transport: c.net,
		Rand: rand.New(rand.NewSource(8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := cl.Read(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Found {
		t.Fatalf("sub-threshold value accepted: %+v", rr)
	}
	if rr.Discarded != 2 {
		t.Errorf("discarded = %d, want 2", rr.Discarded)
	}
}

func TestClockWitnessOnRead(t *testing.T) {
	c := newCluster(t, 5)
	sys := majoritySystem(t, 5)
	w1 := benignClient(t, c, sys, 1)
	ctx := context.Background()
	// Writer 1 writes 5 times; its clock reaches 5.
	for i := 0; i < 5; i++ {
		if _, err := w1.Write(ctx, "x", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A recovering writer (fresh clock) reads, witnesses stamp 5, and its
	// next write must dominate.
	w2 := benignClient(t, c, sys, 1)
	if _, err := w2.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	wr, err := w2.Write(ctx, "x", []byte("recovered"))
	if err != nil {
		t.Fatal(err)
	}
	if wr.Stamp.Counter <= 5 {
		t.Errorf("recovered writer stamp %v does not dominate", wr.Stamp)
	}
	rr, err := w1.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(rr.Value) != "recovered" {
		t.Errorf("read %+v after recovery write", rr)
	}
}

func TestModeString(t *testing.T) {
	if Benign.String() != "benign" || Dissemination.String() != "dissemination" ||
		Masking.String() != "masking" || Mode(9).String() != "mode(9)" {
		t.Error("Mode.String wrong")
	}
}
