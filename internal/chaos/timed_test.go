package chaos

import (
	"testing"

	"pqs/internal/core"
	"pqs/internal/register"
)

// TestTimedChurnScenario pins the timed-quorum machinery end to end: the
// churn-timed scenario populates depth buckets beyond D=0 (the whole point
// of ReadLag), carries a timed verdict, and passes its decayed bound.
func TestTimedChurnScenario(t *testing.T) {
	sc, ok := find("benign/churn-timed")
	if !ok {
		t.Fatal("benign/churn-timed missing from the library")
	}
	cfg, err := sc.Build(1, *chaosSeed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tr := rep.Check.Timed
	if tr == nil {
		t.Fatal("a churning schedule but CheckResult.Timed is nil")
	}
	deep := 0
	for _, g := range tr.Groups {
		t.Logf("D=%d: reads=%d bad=%d bound=%.4g", g.Departures, g.Reads, g.Bad, g.Bound)
		if g.Departures > 0 {
			deep += g.Reads
		}
		if g.Departures > 0 && g.Bound <= rep.Check.Bound {
			t.Errorf("depth bucket D=%d bound %.4g not decayed above base %.4g",
				g.Departures, g.Bound, rep.Check.Bound)
		}
	}
	if deep == 0 {
		t.Error("no reads landed in D>0 buckets; ReadLag/churn pairing is broken")
	}
	t.Logf("timed: maxBound=%.4g p=%.3g pass=%v (flat p=%.3g)", tr.MaxBound, tr.PValue, tr.Pass, rep.Check.PValue)
	if !tr.Pass || !rep.Check.Pass {
		t.Errorf("churn-timed failed its decayed bound: p=%.3g", tr.PValue)
	}
}

// TestTimedBoundHasTeeth is the negative test for the timed gate: an
// observed bad-read count far above what the decayed bounds admit must
// fail evaluateTimed, and a view-blind history (all ops stamped with view
// 0, as a broken harness would produce) re-checked under the same timed
// config must not be granted the churn allowance.
func TestTimedBoundHasTeeth(t *testing.T) {
	// Synthetic gate check: 2000 reads at depth 0 with 40 bad is a ~2%
	// empirical ε against a 1e-3-ish decayed bound — hopeless at any alpha.
	tb := TimedBound{N: 100, QW: 25, QR: 25, Base: 1e-3}
	res := evaluateTimed([]TimedGroup{
		{Departures: 0, Reads: 2000, Bad: 40},
		{Departures: 5, Reads: 500, Bad: 2},
	}, tb)
	if res.Pass {
		t.Fatalf("evaluateTimed passed an overrun history (p=%.3g)", res.PValue)
	}

	// View-blind replay: run a churn storm harsh enough that depth
	// staleness is statistically unmistakable — half the universe replaced
	// (empty) every 30 pairs, with reads lagging 20 pairs behind their
	// writes so most depth-reads straddle a wave. With views the decayed
	// bounds absorb the misses; with the view stamps stripped every read
	// collapses into the D=0 bucket, whose bound has no churn allowance,
	// and the same history must fail. The storm's length is what gives
	// this half its power: at 600 pairs and 19 waves it failed to reject on
	// 10 of -chaos.seed 1–20 (p from 2.8e-5 to 6.7e-3 against α = 1e-6);
	// at 2 400 pairs and 79 waves it rejects on all twenty.
	cfg, rep := timedStormRun(t)
	blind := make(History, len(rep.History))
	copy(blind, rep.History)
	for i := range blind {
		blind[i].View = 0
	}
	q := cfg.System.QuorumSize()
	check := Check(blind, CheckConfig{
		Mode: cfg.Mode, Bound: cfg.Bound,
		Timed: &TimedBound{N: cfg.System.N(), QW: q, QR: q, Base: cfg.Bound},
	})
	if check.Timed == nil {
		t.Fatal("view-blind re-check produced no timed result")
	}
	for _, g := range check.Timed.Groups {
		if g.Departures != 0 {
			t.Errorf("view-blind history produced depth bucket D=%d", g.Departures)
		}
	}
	t.Logf("view-blind: timed p=%.3g, %d bad of %d reads", check.Timed.PValue, check.EligibleBad, check.EligibleReads)
	if check.Timed.Pass {
		t.Errorf("view-blind history passed the timed gate (p=%.3g): the depth bucketing is not load-bearing", check.Timed.PValue)
	}
}

// timedStormRun runs the harsh replacement-storm config the teeth tests
// share: n=100, q=25, 2 400 pairs, half the universe replaced empty every
// 30 pairs (79 waves).
func timedStormRun(t *testing.T) (Config, *Report) {
	t.Helper()
	sys, err := core.NewEpsilonIntersectingEll(100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{}
	for w := 1; w < 80; w++ {
		half := ids(0, 50)
		if w%2 == 0 {
			half = ids(50, 50)
		}
		sched = append(sched, At(30*w, Leave(half...), Join(half...)))
	}
	cfg := Config{
		Name: "timed/storm", System: sys, Mode: register.Benign,
		Ops: 2400, Keys: 24, ReadLag: 20,
		Seed: *chaosSeed, Bound: sys.EpsilonBound(),
		Schedule: sched,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return cfg, rep
}

// TestTimedStormPassesWithViews is the positive half of the teeth pair:
// the SAME storm history that fails view-blind passes when ops carry their
// view stamps, because the Gramoli-Raynal decay admits exactly the extra
// staleness the replacement waves cause.
func TestTimedStormPassesWithViews(t *testing.T) {
	_, rep := timedStormRun(t)
	tr := rep.Check.Timed
	if tr == nil {
		t.Fatal("no timed result")
	}
	for _, g := range tr.Groups {
		t.Logf("D=%d: reads=%d bad=%d bound=%.4g", g.Departures, g.Reads, g.Bad, g.Bound)
	}
	t.Logf("timed: maxBound=%.4g p=%.3g pass=%v", tr.MaxBound, tr.PValue, tr.Pass)
	if !tr.Pass {
		t.Errorf("storm failed WITH views (p=%.3g): the decayed bound is mis-calibrated", tr.PValue)
	}
	if len(rep.Check.Violations) > 0 {
		t.Errorf("storm produced %d hard violations", len(rep.Check.Violations))
	}
}
