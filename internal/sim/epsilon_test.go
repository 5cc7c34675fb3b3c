package sim_test

// The empirical ε of Theorems 3.2, 4.2 and 5.2, measured by the one ε loop
// (chaos.Run over sim's clusters) and held against each construction's
// exact value, not just its bound: with no fault but a Byzantine set, a
// read misses the last write exactly as often as its quorum fails to meet
// the write's in enough correct servers. An external test package, because
// chaos builds on sim.

import (
	"math"
	"testing"

	"pqs/internal/chaos"
	"pqs/internal/combin"
	"pqs/internal/core"
	"pqs/internal/quorum"
	"pqs/internal/register"
)

// band returns a 5-sigma binomial confidence band around eps.
func band(eps float64, trials int) float64 {
	return 5*math.Sqrt(eps*(1-eps)/float64(trials)) + 1e-4
}

// ids returns servers 0..n-1.
func ids(n int) []quorum.ServerID {
	out := make([]quorum.ServerID, n)
	for i := range out {
		out[i] = quorum.ServerID(i)
	}
	return out
}

// forgers turns servers 0..b-1 into colluding forgers before the first
// operation: one fabricated value under an overwhelming timestamp.
func forgers(b int) chaos.Schedule {
	return chaos.Schedule{chaos.At(0, chaos.Collude("forged", ids(b)...))}
}

// run executes cfg, failing the test on a harness error.
func run(t *testing.T, cfg chaos.Config) *chaos.Report {
	t.Helper()
	rep, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEmpiricalEpsilonBenign(t *testing.T) {
	// Theorem 3.2: the stale-read rate of the real protocol must match the
	// exact non-intersection probability of the construction.
	e, err := core.NewEpsilonIntersecting(36, 8)
	if err != nil {
		t.Fatal(err)
	}
	exact := e.Epsilon()
	if exact < 0.01 || exact > 0.5 {
		t.Fatalf("test parameters degenerate: exact eps = %v", exact)
	}
	const ops = 4000
	c := run(t, chaos.Config{System: e, Mode: register.Benign, Ops: ops, Seed: 1}).Check
	if c.Fooled != 0 {
		t.Errorf("benign run reported %d fooled reads", c.Fooled)
	}
	if diff := math.Abs(c.Epsilon - exact); diff > band(exact, ops) {
		t.Errorf("empirical rate %v vs exact eps %v (diff %v)", c.Epsilon, exact, diff)
	}
}

func TestEmpiricalEpsilonDissemination(t *testing.T) {
	// Theorem 4.2 with b colluding forgers whose replies cannot verify.
	n, q, b := 36, 10, 6
	d, err := core.NewDissemination(n, q, b)
	if err != nil {
		t.Fatal(err)
	}
	exact := d.Epsilon()
	if exact < 0.005 || exact > 0.5 {
		t.Fatalf("test parameters degenerate: exact eps = %v", exact)
	}
	const ops = 4000
	c := run(t, chaos.Config{System: d, Mode: register.Dissemination, Ops: ops, Seed: 2, Schedule: forgers(b)}).Check
	// Self-verifying data: fabrications must never be accepted.
	if c.Fooled != 0 {
		t.Errorf("dissemination reads accepted %d forgeries", c.Fooled)
	}
	if diff := math.Abs(c.Epsilon - exact); diff > band(exact, ops) {
		t.Errorf("empirical rate %v vs exact eps %v (diff %v)", c.Epsilon, exact, diff)
	}
}

func TestEmpiricalEpsilonMasking(t *testing.T) {
	// Theorem 5.2: the failure rate of the threshold read protocol must
	// match the exact masking error probability.
	n, q, b := 36, 18, 3
	m, err := core.NewMasking(n, q, b)
	if err != nil {
		t.Fatal(err)
	}
	exact := m.Epsilon()
	if exact < 0.005 || exact > 0.5 {
		t.Fatalf("test parameters degenerate: exact eps = %v (k=%d)", exact, m.K())
	}
	const ops = 4000
	c := run(t, chaos.Config{System: m, Mode: register.Masking, Ops: ops, Seed: 3, Schedule: forgers(b)}).Check
	if diff := math.Abs(c.Epsilon - exact); diff > band(exact, ops) {
		t.Errorf("empirical rate %v vs exact eps %v (diff %v)", c.Epsilon, exact, diff)
	}
	// The threshold makes forged acceptance possible but must be rare; it
	// is included in the overall rate which we already checked. Accounting:
	if c.Correct+c.Stale+c.Fooled+c.Unavailable != c.Reads {
		t.Errorf("accounting broken: %+v", c)
	}
}

func TestMaskingFooledMatchesHypergeometricTail(t *testing.T) {
	// The fooled fraction alone must match P(|Q∩B| >= k) (forged candidates
	// carry an overwhelming stamp, so they win exactly when they pass k).
	n, q, b := 25, 15, 4
	m, err := core.NewMasking(n, q, b)
	if err != nil {
		t.Fatal(err)
	}
	exact := combin.HypergeomTailGE(n, b, q, m.K())
	const ops = 4000
	c := run(t, chaos.Config{System: m, Mode: register.Masking, Ops: ops, Seed: 4, Schedule: forgers(b)}).Check
	fooledRate := float64(c.Fooled) / float64(c.Reads)
	if diff := math.Abs(fooledRate - exact); diff > band(exact, ops) {
		t.Errorf("fooled rate %v vs P(X>=k) %v", fooledRate, exact)
	}
}
