package diffusion

import (
	"context"
	"testing"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
)

// seedEntry plants a value at one replica, as a completed write would.
func seedEntry(r *replica.Replica, key string, counter uint64) {
	r.Store().Apply(key, replica.Entry{Value: []byte("v"), Stamp: ts.Stamp{Counter: counter, Writer: 1}})
}

// storesConverged reports whether every engine's store holds key at or
// above the stamp.
func storesConverged(g *Group, key string, counter uint64) bool {
	for _, e := range g.engines {
		entry, ok := e.cfg.Store.Get(key)
		if !ok || entry.Stamp.Counter < counter {
			return false
		}
	}
	return true
}

// TestGossipConvergesUnderChurn drives the new-membership path: servers
// leave mid-diffusion (their engines stop and their addresses vanish from
// the network) and fresh, empty servers join; gossip must still converge
// over the current membership. This is the churn coverage the static
// tests cannot give.
func TestGossipConvergesUnderChurn(t *testing.T) {
	const n = 10
	net := transport.NewMemNetwork(7)
	reps := make([]*replica.Replica, n)
	for i := range reps {
		reps[i] = replica.New(quorum.ServerID(i))
		net.Register(quorum.ServerID(i), reps[i])
	}
	g, err := NewGroup(reps, net, 2, nil, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	seedEntry(reps[0], "k", 1)

	ctx := context.Background()
	// A couple of rounds to start spreading, then churn: two members leave
	// (one of which may already hold the entry), two fresh ones join empty.
	for i := 0; i < 2; i++ {
		if err := g.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Replace([]quorum.ServerID{3, 4}, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Engines()); got != n-2 {
		t.Fatalf("membership after two leaves = %d engines, want %d", got, n-2)
	}
	net.Deregister(3)
	net.Deregister(4)
	joined := make([]*replica.Replica, 0, 2)
	for _, id := range []quorum.ServerID{10, 11} {
		r := replica.New(id)
		net.Register(id, r)
		joined = append(joined, r)
	}
	if err := g.Replace(nil, joined); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Engines()); got != n {
		t.Fatalf("membership after churn = %d engines, want %d", got, n)
	}

	// Convergence over the *current* members, including the joiners, must
	// still happen within the epidemic spreading time (log n rounds, with
	// headroom).
	converged := false
	for round := 0; round < 40; round++ {
		if storesConverged(g, "k", 1) {
			converged = true
			break
		}
		if err := g.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !converged {
		t.Fatal("gossip did not converge over the post-churn membership within 40 rounds")
	}
	for _, r := range joined {
		if _, ok := r.Store().Get("k"); !ok {
			t.Fatalf("joined server %d never received the entry", r.ID())
		}
	}

	// Departed servers must no longer be gossip targets: their engines are
	// gone and calls to them fail, but rounds keep succeeding (failures are
	// tolerated and counted, and after peer-set refresh nobody should even
	// try them).
	before := failedTotal(g)
	for i := 0; i < 5; i++ {
		if err := g.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if after := failedTotal(g); after != before {
		t.Fatalf("post-churn rounds still contact departed servers: failed exchanges %d -> %d", before, after)
	}
}

// failedTotal sums failed peer exchanges across the group.
func failedTotal(g *Group) uint64 {
	var total uint64
	for _, e := range g.engines {
		total += e.Stats().Failed
	}
	return total
}

// TestGossipChurnWhileLeaving exercises the window between a server
// becoming unreachable and its removal from peer sets: rounds must
// tolerate the failures and convergence must complete after the peer-set
// refresh.
func TestGossipChurnWhileLeaving(t *testing.T) {
	const n = 8
	net := transport.NewMemNetwork(3)
	reps := make([]*replica.Replica, n)
	for i := range reps {
		reps[i] = replica.New(quorum.ServerID(i))
		net.Register(quorum.ServerID(i), reps[i])
	}
	g, err := NewGroup(reps, net, 1, nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	seedEntry(reps[0], "k", 1)

	ctx := context.Background()
	// The server disappears from the network but stays in everyone's peer
	// set: gossip rounds now hit ErrUnknownServer and must carry on.
	net.Deregister(7)
	for i := 0; i < 6; i++ {
		if err := g.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if failedTotal(g) == 0 {
		t.Fatal("expected failed exchanges while the departed server was still a peer")
	}
	// Now the membership catches up; convergence over the remaining 7 must
	// complete.
	if err := g.Replace([]quorum.ServerID{7}, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Engines()); got != n-1 {
		t.Fatalf("membership after the leave = %d engines, want %d", got, n-1)
	}
	for round := 0; round < 40 && !storesConverged(g, "k", 1); round++ {
		if err := g.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !storesConverged(g, "k", 1) {
		t.Fatal("gossip did not converge after the departed server was removed from peer sets")
	}
}

// TestGroupReplaceAndStepOnly pins the batched churn-wave API the
// population-scale load harness uses: Replace swaps a whole wave with one
// peer-set refresh, and StepOnly runs rejoin anti-entropy for just the
// replacements — which must be enough for an empty rejoiner to pull state
// back without a global round.
func TestGroupReplaceAndStepOnly(t *testing.T) {
	const n = 8
	net := transport.NewMemNetwork(3)
	reps := make([]*replica.Replica, n)
	for i := range reps {
		reps[i] = replica.New(quorum.ServerID(i))
		net.Register(quorum.ServerID(i), reps[i])
	}
	g, err := NewGroup(reps, net, 2, nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every live replica holds the entry, as after a completed wide write.
	for _, r := range reps {
		seedEntry(r, "k", 1)
	}

	// One wave: servers 1 and 2 are destroyed and rejoin empty.
	departed := []quorum.ServerID{1, 2}
	joined := make([]*replica.Replica, 0, len(departed))
	for _, id := range departed {
		net.Deregister(id)
		r := replica.New(id)
		net.Register(id, r)
		joined = append(joined, r)
	}
	if err := g.Replace(departed, joined); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Engines()); got != n {
		t.Fatalf("membership after Replace = %d engines, want %d", got, n)
	}
	// Every engine's peer set must reflect the single batched refresh:
	// n-1 peers, self excluded, no departed duplicates.
	for _, e := range g.Engines() {
		e.mu.Lock()
		peers := append([]quorum.ServerID(nil), e.peers...)
		e.mu.Unlock()
		if len(peers) != n-1 {
			t.Fatalf("engine %d has %d peers after Replace, want %d", e.Self(), len(peers), n-1)
		}
		for _, p := range peers {
			if p == e.Self() {
				t.Fatalf("engine %d lists itself as a peer", e.Self())
			}
		}
	}
	// Rejoining an id that was not removed must be refused.
	if err := g.Replace(nil, []*replica.Replica{replica.New(0)}); err == nil {
		t.Fatal("Replace accepted a duplicate member")
	}

	// StepOnly heals the rejoiners: with Fanout 2 over healthy peers, a
	// handful of targeted rounds must restore the entry to both.
	ctx := context.Background()
	healed := func() bool {
		for _, r := range joined {
			if e, ok := r.Store().Get("k"); !ok || e.Stamp.Counter < 1 {
				return false
			}
		}
		return true
	}
	for rounds := 0; rounds < 10 && !healed(); rounds++ {
		if err := g.StepOnly(ctx, departed); err != nil {
			t.Fatal(err)
		}
	}
	if !healed() {
		t.Fatal("rejoined servers never pulled the entry back via StepOnly")
	}
	// Only the targeted engines stepped.
	for _, e := range g.Engines() {
		stepped := e.Stats().Rounds > 0
		target := e.Self() == 1 || e.Self() == 2
		if stepped != target {
			t.Fatalf("engine %d stepped=%v, want %v (StepOnly must touch only the named ids)", e.Self(), stepped, target)
		}
	}
}

// TestReplaceRejoinIsFirstContact: an id that departs and rejoins in one
// Replace is a new store, so every remaining engine forgets its watermarks
// for it — the next push to it is a full one, not a delta past what the
// destroyed store had acknowledged.
func TestReplaceRejoinIsFirstContact(t *testing.T) {
	const n = 4
	net := transport.NewMemNetwork(5)
	reps := make([]*replica.Replica, n)
	for i := range reps {
		reps[i] = replica.New(quorum.ServerID(i))
		net.Register(quorum.ServerID(i), reps[i])
	}
	// Fanout n-1: every round contacts every peer.
	g, err := NewGroup(reps, net, n-1, nil, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	seedEntry(reps[0], "k", 1)
	if err := g.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	watermarked := func(e *Engine, id quorum.ServerID) bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		_, ok := e.sync[id]
		return ok
	}
	if !watermarked(g.Engines()[0], 2) {
		t.Fatal("engine 0 holds no watermarks for peer 2 after a full round")
	}
	fresh := replica.New(2)
	net.Register(2, fresh)
	if err := g.Replace([]quorum.ServerID{2}, []*replica.Replica{fresh}); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Engines() {
		if e.Self() != 2 && watermarked(e, 2) {
			t.Errorf("engine %d kept its watermarks for the rejoined server 2", e.Self())
		}
	}
}
