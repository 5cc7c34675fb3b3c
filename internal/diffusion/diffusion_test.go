package diffusion

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
)

func buildCluster(t *testing.T, n int) (*transport.MemNetwork, []*replica.Replica) {
	t.Helper()
	net := transport.NewMemNetwork(11)
	reps := make([]*replica.Replica, n)
	for i := 0; i < n; i++ {
		reps[i] = replica.New(quorum.ServerID(i))
		net.Register(quorum.ServerID(i), reps[i])
	}
	return net, reps
}

func TestNewEngineValidation(t *testing.T) {
	net, reps := buildCluster(t, 2)
	rng := rand.New(rand.NewSource(1))
	cases := []Config{
		{Store: reps[0].Store(), Rand: rng},      // no transport
		{Transport: net, Rand: rng},              // no store
		{Transport: net, Store: reps[0].Store()}, // no rand
	}
	for i, cfg := range cases {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Self must be excluded from peers.
	e, err := NewEngine(Config{
		Self: 0, Peers: []quorum.ServerID{0, 1},
		Transport: net, Store: reps[0].Store(), Rand: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.peers) != 1 || e.peers[0] != 1 {
		t.Errorf("self not excluded from live peer set: %v", e.peers)
	}
}

func TestPushPullExchange(t *testing.T) {
	net, reps := buildCluster(t, 2)
	// Replica 0 holds a newer x; replica 1 holds an older x and a y.
	reps[0].Store().Apply("x", replica.Entry{Value: []byte("new"), Stamp: ts.Stamp{Counter: 5, Writer: 1}})
	reps[1].Store().Apply("x", replica.Entry{Value: []byte("old"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})
	reps[1].Store().Apply("y", replica.Entry{Value: []byte("why"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})

	e, err := NewEngine(Config{
		Self: 0, Peers: []quorum.ServerID{1},
		Transport: net, Store: reps[0].Store(),
		Rand: rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Push: replica 1 adopted the newer x. Pull: replica 0 learned y.
	if got, _ := reps[1].Store().Get("x"); string(got.Value) != "new" {
		t.Errorf("peer did not adopt pushed entry: %+v", got)
	}
	if got, ok := reps[0].Store().Get("y"); !ok || string(got.Value) != "why" {
		t.Errorf("initiator did not pull missing entry: %+v", got)
	}
	s := e.Stats()
	if s.Rounds != 1 || s.Contacted != 1 || s.Merged != 1 || s.Failed != 0 {
		t.Errorf("stats %+v", s)
	}
}

func TestGroupConvergence(t *testing.T) {
	net, reps := buildCluster(t, 24)
	// Seed one replica with the update.
	reps[3].Store().Apply("x", replica.Entry{Value: []byte("v"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})
	g, err := NewGroup(reps, net, 2, nil, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := g.RoundsToConverge(context.Background(), "x", 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rounds > 40 {
		t.Fatalf("did not converge in 40 rounds")
	}
	// Epidemic spread is O(log n); allow a generous constant.
	if rounds > 15 {
		t.Errorf("convergence took %d rounds for n=24, fanout=2 (expected O(log n))", rounds)
	}
	for i, r := range reps {
		if e, ok := r.Store().Get("x"); !ok || string(e.Value) != "v" {
			t.Errorf("replica %d missing entry: %+v", i, e)
		}
	}
}

func TestRoundsToConvergeAlreadyConverged(t *testing.T) {
	net, reps := buildCluster(t, 3)
	for _, r := range reps {
		r.Store().Apply("x", replica.Entry{Value: []byte("v"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})
	}
	g, err := NewGroup(reps, net, 1, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := g.RoundsToConverge(context.Background(), "x", 1, 10)
	if err != nil || rounds != 0 {
		t.Errorf("rounds = %d, err = %v, want 0, nil", rounds, err)
	}
	// A stamp no replica holds must report non-convergence.
	rounds, err = g.RoundsToConverge(context.Background(), "x", 99, 3)
	if err != nil || rounds != 4 {
		t.Errorf("rounds = %d, err = %v, want maxRounds+1 = 4", rounds, err)
	}
}

func TestCrashedPeersTolerated(t *testing.T) {
	net, reps := buildCluster(t, 4)
	reps[0].Store().Apply("x", replica.Entry{Value: []byte("v"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})
	net.Crash(1)
	net.Crash(2)
	e, err := NewEngine(Config{
		Self: 0, Peers: []quorum.ServerID{1, 2, 3},
		Transport: net, Store: reps[0].Store(),
		Fanout: 3, Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Failed != 2 || s.Contacted != 1 {
		t.Errorf("stats %+v, want 2 failed, 1 contacted", s)
	}
	if got, ok := reps[3].Store().Get("x"); !ok || string(got.Value) != "v" {
		t.Errorf("live peer did not receive entry: %+v", got)
	}
}

func TestVerifierBlocksByzantineGossip(t *testing.T) {
	net, reps := buildCluster(t, 3)
	// Replica 2 is Byzantine: its store holds a fabricated entry with a huge
	// stamp and a bogus signature.
	reps[2].Store().Apply("x", replica.Entry{
		Value: []byte("forged"), Stamp: ts.Stamp{Counter: 1 << 30, Writer: 1}, Sig: []byte("bogus"),
	})
	reps[0].Store().Apply("x", replica.Entry{
		Value: []byte("good"), Stamp: ts.Stamp{Counter: 1, Writer: 1}, Sig: []byte("valid"),
	})
	verifier := func(_ string, _ []byte, _ ts.Stamp, sig []byte) bool { return string(sig) == "valid" }

	e, err := NewEngine(Config{
		Self: 0, Peers: []quorum.ServerID{2},
		Transport: net, Store: reps[0].Store(),
		Verifier: verifier, Rand: rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, _ := reps[0].Store().Get("x"); string(got.Value) != "good" {
		t.Errorf("byzantine entry merged: %+v", got)
	}
	if s := e.Stats(); s.Rejected == 0 {
		t.Errorf("stats %+v: expected rejections", s)
	}
}

func TestRunHonorsContext(t *testing.T) {
	net, reps := buildCluster(t, 2)
	e, err := NewEngine(Config{
		Self: 0, Peers: []quorum.ServerID{1},
		Transport: net, Store: reps[0].Store(),
		Interval: time.Millisecond, Rand: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		e.Run(ctx)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop after cancel")
	}
	if e.Stats().Rounds == 0 {
		t.Error("Run never gossiped")
	}
}

func TestStepWithNoPeers(t *testing.T) {
	net, reps := buildCluster(t, 1)
	e, err := NewEngine(Config{
		Self: 0, Transport: net, Store: reps[0].Store(),
		Rand: rand.New(rand.NewSource(6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(context.Background()); err != nil {
		t.Errorf("step with no peers: %v", err)
	}
	if e.Stats().Rounds != 1 {
		t.Error("round not counted")
	}
}

func TestStepCancelledContext(t *testing.T) {
	net, reps := buildCluster(t, 2)
	e, err := NewEngine(Config{
		Self: 0, Peers: []quorum.ServerID{1},
		Transport: net, Store: reps[0].Store(),
		Rand: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Step(ctx); err == nil {
		t.Error("step with cancelled context should fail")
	}
}
