package sim

import (
	"math"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/register"
)

// TestSimFastLongFormEpsilon is the CI `sim-fast` gate: the long-form ε
// measurement — hundreds of trials over a 100-server cluster with tens of
// milliseconds of injected per-call latency, stragglers and adaptive
// hedging — which real-time sleeps made far too slow for CI. Under a
// SimClock it must cover its simulated duration at least 50x faster than
// wall time, proving the virtual-time speedup is real and gating
// regressions that would reintroduce wall-clock waits into the simulated
// path.
//
// Run it alone with: make sim-fast
func TestSimFastLongFormEpsilon(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConsistencyConfig{
		System: sys, Mode: register.Benign, Trials: 400, Seed: 42,
		Virtual:    true,
		Topology:   config.Topology{LatencyMin: 20 * time.Millisecond, LatencyMax: 60 * time.Millisecond},
		StragglerN: 5, StragglerLatency: 150 * time.Millisecond,
		Tuning: config.Tuning{
			Spares:        2,
			HedgeDelay:    80 * time.Millisecond,
			AdaptiveHedge: true,
			EagerRead:     true,
		},
	}
	start := time.Now()
	res, err := MeasureConsistency(cfg)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimElapsed < 10*time.Second {
		t.Fatalf("run simulated only %v; the latency injection is not reaching the clock", res.SimElapsed)
	}
	speedup := float64(res.SimElapsed) / float64(wall)
	t.Logf("simulated %v in %v wall: %.0fx speedup (ε=%.4f over %d trials, bound %.3g)",
		res.SimElapsed.Round(time.Millisecond), wall.Round(time.Millisecond),
		speedup, res.Rate, res.Trials, sys.EpsilonBound())
	if speedup < 50 {
		t.Fatalf("virtual time ran only %.1fx faster than wall (%v simulated in %v); want >= 50x",
			speedup, res.SimElapsed, wall)
	}
	// The measurement itself must stay sane: the bound check with slack
	// for the finite trial count (the adversarial version lives in the
	// chaos suite; this is the smoke assertion for the long-form run).
	sigma := math.Sqrt(sys.EpsilonBound() * (1 - sys.EpsilonBound()) / float64(cfg.Trials))
	if res.Rate > sys.EpsilonBound()+3*sigma {
		t.Fatalf("long-form ε %.5f far above bound %.5f", res.Rate, sys.EpsilonBound())
	}
}

// TestSimFastLongFormEpsilonTCP is the virtual-TCP half of the `sim-fast`
// gate: the long-form ε measurement runs through the REAL data plane —
// binary codec, group-commit frame writer, read-loop dispatch — over
// SimClock-scheduled byte streams, with per-chunk latency in the tens of
// milliseconds, stragglers and adaptive hedging. The wire path costs real
// scheduler work (every chunk is a timer, every reply crosses read loop →
// call → gather), so the bar is >= 20x rather than the MemNetwork run's 50x;
// what it gates is the same property: simulated seconds must not cost wall
// seconds, now for the code path production actually runs.
//
// Run it alone with: make sim-fast
func TestSimFastLongFormEpsilonTCP(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConsistencyConfig{
		System: sys, Mode: register.Benign, Trials: 200, Seed: 42,
		Virtual:    true,
		Topology:   config.Topology{Transport: TransportTCPVirtual, LatencyMin: 10 * time.Millisecond, LatencyMax: 30 * time.Millisecond},
		StragglerN: 5, StragglerLatency: 80 * time.Millisecond,
		Tuning: config.Tuning{
			Spares:        2,
			HedgeDelay:    90 * time.Millisecond,
			AdaptiveHedge: true,
			EagerRead:     true,
		},
	}
	start := time.Now()
	res, err := MeasureConsistency(cfg)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimElapsed < 5*time.Second {
		t.Fatalf("run simulated only %v; chunk latency is not reaching the byte streams", res.SimElapsed)
	}
	speedup := float64(res.SimElapsed) / float64(wall)
	t.Logf("virtual TCP: simulated %v in %v wall: %.0fx speedup (ε=%.4f over %d trials, bound %.3g)",
		res.SimElapsed.Round(time.Millisecond), wall.Round(time.Millisecond),
		speedup, res.Rate, res.Trials, sys.EpsilonBound())
	if speedup < 20 {
		t.Fatalf("virtual TCP ran only %.1fx faster than wall (%v simulated in %v); want >= 20x",
			speedup, res.SimElapsed, wall)
	}
	sigma := math.Sqrt(sys.EpsilonBound() * (1 - sys.EpsilonBound()) / float64(cfg.Trials))
	if res.Rate > sys.EpsilonBound()+3*sigma {
		t.Fatalf("long-form ε %.5f far above bound %.5f", res.Rate, sys.EpsilonBound())
	}
}

// TestAdaptiveHedgeEpsilonPreserved re-measures ε with adaptive hedging in
// effect: the hedged client's failure rate must not exceed the unhedged
// client's beyond finite-sample noise, because spare promotion — whether
// failure-triggered or timer-triggered — only conditions the completed
// access set on liveness, never on returned values (the promotion argument
// in register.Options). Both runs are deterministic (same seed, virtual
// clock); the slack tolerates legitimate future shifts in the sampling
// sequence, not run-to-run randomness.
func TestAdaptiveHedgeEpsilonPreserved(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := ConsistencyConfig{
		System: sys, Mode: register.Benign, Trials: 500, Seed: 23,
		Virtual:    true,
		Topology:   config.Topology{LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond},
		StragglerN: 4, StragglerLatency: 25 * time.Millisecond,
		DropProb: 0.08,
	}
	hedged := base
	hedged.Spares = 3
	hedged.HedgeDelay = 5 * time.Millisecond
	hedged.AdaptiveHedge = true
	hedged.EagerRead = true

	rb, err := MeasureConsistency(base)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := MeasureConsistency(hedged)
	if err != nil {
		t.Fatal(err)
	}
	sigma := math.Sqrt(math.Max(rb.Rate, 0.01) * (1 - rb.Rate) / float64(base.Trials))
	t.Logf("ε unhedged %.4f, adaptive-hedged %.4f (3σ slack %.4f), hedged run simulated %v vs %v",
		rb.Rate, rh.Rate, 3*sigma, rh.SimElapsed.Round(time.Millisecond), rb.SimElapsed.Round(time.Millisecond))
	if rh.Rate > rb.Rate+3*sigma {
		t.Fatalf("adaptive hedging degraded ε: %.4f hedged vs %.4f unhedged (+3σ = %.4f)",
			rh.Rate, rb.Rate, rb.Rate+3*sigma)
	}
	// And it must actually have hedged something: the straggler subset
	// plus drops guarantee promotions, so a zero here means the knob was
	// silently disconnected.
	if rh.SimElapsed >= rb.SimElapsed {
		t.Fatalf("hedged run was not faster in virtual time (%v vs %v); hedging is not engaging",
			rh.SimElapsed, rb.SimElapsed)
	}
}
