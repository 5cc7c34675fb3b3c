package quorum

import (
	"math"
	"math/rand"
	"testing"
)

// checkSpares validates the SpareSampler contract: the quorum matches the
// system's size and sorting invariants, spares are in-universe, and the two
// sets are disjoint (with no duplicate spares).
func checkSpares(t *testing.T, sys SpareSampler, r *rand.Rand, want int) {
	t.Helper()
	q, spare := sys.PickWithSpares(r, want)
	if len(q) == 0 {
		t.Fatalf("%s: empty quorum", sys.Name())
	}
	for i := 1; i < len(q); i++ {
		if q[i-1] >= q[i] {
			t.Fatalf("%s: quorum not strictly ascending: %v", sys.Name(), q)
		}
	}
	if len(spare) > want {
		t.Fatalf("%s: %d spares returned, want <= %d", sys.Name(), len(spare), want)
	}
	seen := map[ServerID]bool{}
	for _, id := range spare {
		if id < 0 || int(id) >= sys.N() {
			t.Fatalf("%s: spare %d outside universe", sys.Name(), id)
		}
		if Contains(q, id) {
			t.Fatalf("%s: spare %d also in quorum %v", sys.Name(), id, q)
		}
		if seen[id] {
			t.Fatalf("%s: duplicate spare %d", sys.Name(), id)
		}
		seen[id] = true
	}
}

func TestPickWithSparesContract(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	u, err := NewUniform(30, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(25)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := NewMaskGrid(36, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []SpareSampler{u, g, bg} {
		for trial := 0; trial < 200; trial++ {
			checkSpares(t, sys, r, trial%5)
		}
	}
}

// TestPickWithSparesExhaustsUniverse asks for more spares than exist and
// expects the complement, not a panic.
func TestPickWithSparesExhaustsUniverse(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	u, err := NewUniform(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	q, spare := u.PickWithSpares(r, 100)
	if len(q) != 4 || len(spare) != 6 {
		t.Fatalf("got |q|=%d |spare|=%d, want 4 and 6", len(q), len(spare))
	}
}

// TestUniformSparesPreserveQuorumDistribution checks that asking for spares
// does not perturb the marginal access frequency of the primary quorum:
// every server should appear in the quorum with frequency ~ q/n, the load of
// the uniform strategy.
func TestUniformSparesPreserveQuorumDistribution(t *testing.T) {
	const n, q, spares, trials = 20, 5, 3, 40000
	u, err := NewUniform(n, q)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		quor, _ := u.PickWithSpares(r, spares)
		for _, id := range quor {
			counts[id]++
		}
	}
	want := float64(q) / float64(n)
	for id, c := range counts {
		got := float64(c) / float64(trials)
		if math.Abs(got-want) > 0.015 {
			t.Errorf("server %d quorum frequency %.4f, want %.4f +/- 0.015", id, got, want)
		}
	}
}
