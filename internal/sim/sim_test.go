package sim

import (
	"math"
	"testing"

	"pqs/internal/combin"
	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/quorum"
	"pqs/internal/register"
)

// tolerance returns a 5-sigma binomial confidence band around eps.
func tolerance(eps float64, trials int) float64 {
	return 5*math.Sqrt(eps*(1-eps)/float64(trials)) + 1e-4
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
	trials := 4000
	res, err := MeasureConsistency(ConsistencyConfig{
		System: e, Mode: register.Benign, Trials: trials, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fooled != 0 {
		t.Errorf("benign run reported %d fooled reads", res.Fooled)
	}
	if diff := math.Abs(res.Rate - exact); diff > tolerance(exact, trials) {
		t.Errorf("empirical rate %v vs exact eps %v (diff %v)", res.Rate, exact, diff)
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
	trials := 4000
	res, err := MeasureConsistency(ConsistencyConfig{
		System: d, Mode: register.Dissemination, B: b, Trials: trials, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Self-verifying data: fabrications must never be accepted.
	if res.Fooled != 0 {
		t.Errorf("dissemination reads accepted %d forgeries", res.Fooled)
	}
	if diff := math.Abs(res.Rate - exact); diff > tolerance(exact, trials) {
		t.Errorf("empirical rate %v vs exact eps %v (diff %v)", res.Rate, exact, diff)
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
	trials := 4000
	res, err := MeasureConsistency(ConsistencyConfig{
		System: m, Mode: register.Masking, K: m.K(), B: b, Trials: trials, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(res.Rate - exact); diff > tolerance(exact, trials) {
		t.Errorf("empirical rate %v vs exact eps %v (diff %v)", res.Rate, exact, diff)
	}
	// The threshold makes forged acceptance possible but must be rare; it
	// is included in the overall rate which we already checked. Accounting:
	if res.Correct+res.Stale+res.Fooled != res.Trials {
		t.Errorf("accounting broken: %+v", res)
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
	trials := 4000
	res, err := MeasureConsistency(ConsistencyConfig{
		System: m, Mode: register.Masking, K: m.K(), B: b, Trials: trials, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fooledRate := float64(res.Fooled) / float64(res.Trials)
	if diff := math.Abs(fooledRate - exact); diff > tolerance(exact, trials) {
		t.Errorf("fooled rate %v vs P(X>=k) %v", fooledRate, exact)
	}
}

func TestMeasureConsistencyValidation(t *testing.T) {
	e, _ := core.NewEpsilonIntersecting(10, 3)
	if _, err := MeasureConsistency(ConsistencyConfig{System: e, Mode: register.Benign}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := MeasureConsistency(ConsistencyConfig{Mode: register.Benign, Trials: 1}); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := MeasureConsistency(ConsistencyConfig{System: e, Mode: register.Mode(0), Trials: 1}); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestMeasureLoadUniform(t *testing.T) {
	u, err := quorum.NewUniform(30, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureLoad(u, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := u.Load() // 0.2
	if math.Abs(res.MeanRate-want) > 0.01 {
		t.Errorf("mean rate %v, want %v", res.MeanRate, want)
	}
	if math.Abs(res.MaxRate-want) > 0.03 {
		t.Errorf("max rate %v, want ~%v (uniform system: all servers equal)", res.MaxRate, want)
	}
	if len(res.PerServer) != 30 {
		t.Errorf("per-server size %d", len(res.PerServer))
	}
	if _, err := MeasureLoad(u, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestMeasureLoadGrid(t *testing.T) {
	g, err := quorum.NewGrid(36)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureLoad(g, 20000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxRate-g.Load()) > 0.02 {
		t.Errorf("grid max rate %v, want ~%v", res.MaxRate, g.Load())
	}
}

func TestMeasureAvailabilityMatchesExact(t *testing.T) {
	trials := 30000
	u, err := quorum.NewUniform(30, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := quorum.NewGrid(25)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []quorum.System{u, g} {
		for _, p := range []float64{0.3, 0.6, 0.8} {
			emp, err := MeasureAvailability(sys, p, trials, 7)
			if err != nil {
				t.Fatal(err)
			}
			exact := sys.FailProb(p)
			if diff := math.Abs(emp - exact); diff > tolerance(exact, trials) {
				t.Errorf("%s p=%v: MC %v vs exact %v", sys.Name(), p, emp, exact)
			}
		}
	}
}

func TestMeasureAvailabilityByzGridWithinBounds(t *testing.T) {
	// ByzGrid.FailProb is a documented union-bound approximation; the MC
	// estimate is the ground truth and must not exceed it.
	g, err := quorum.NewMaskGrid(49, 3)
	if err != nil {
		t.Fatal(err)
	}
	trials := 20000
	for _, p := range []float64{0.1, 0.3, 0.5} {
		emp, err := MeasureAvailability(g, p, trials, 8)
		if err != nil {
			t.Fatal(err)
		}
		upper := g.FailProb(p)
		if emp > upper+tolerance(upper, trials) {
			t.Errorf("p=%v: MC %v exceeds union bound %v", p, emp, upper)
		}
	}
}

func TestMeasureAvailabilityValidation(t *testing.T) {
	u, _ := quorum.NewUniform(10, 3)
	if _, err := MeasureAvailability(u, -0.1, 10, 1); err == nil {
		t.Error("bad p accepted")
	}
	if _, err := MeasureAvailability(u, 0.5, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestConsistencyUnderCrashes(t *testing.T) {
	sys, err := quorum.NewMajority(15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureConsistencyUnderCrashes(CrashConsistencyConfig{
		System: sys, CrashP: 0.1, Trials: 300, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct+res.Stale+res.Unavailable != res.Trials {
		t.Errorf("accounting broken: %+v", res)
	}
	// Majority quorums with 10% crashes: the overlap server is crashed only
	// occasionally; failure rate must stay small but the harness must not
	// report exactly zero information (all trials unavailable would be a bug).
	if res.Unavailable == res.Trials {
		t.Errorf("all trials unavailable: %+v", res)
	}
	if res.Rate > 0.2 {
		t.Errorf("failure rate %v implausibly high for majority at p=0.1", res.Rate)
	}
}

func TestClusterHelpers(t *testing.T) {
	c := NewCluster(config.Cluster{N: 5, Seed: 1})
	if c.N() != 5 || len(c.Replicas) != 5 {
		t.Error("cluster size wrong")
	}
	for i, r := range c.Replicas {
		if int(r.ID()) != i {
			t.Errorf("replica %d has id %d", i, r.ID())
		}
	}
}
