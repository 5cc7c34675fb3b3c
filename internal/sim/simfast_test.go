package sim_test

import (
	"math"
	"testing"
	"time"

	"pqs/internal/chaos"
	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/register"
	"pqs/internal/sim"
)

// stragglers slows servers 0..n-1 to exactly d per call from the first
// operation on: the subset the hedge should route around.
func stragglers(n int, d time.Duration) chaos.Action {
	return chaos.SlowDown(d, d, ids(n)...)
}

// simSpeedup runs cfg under a SimClock and returns its report and the ratio
// of the virtual time it covered to the wall time it took.
func simSpeedup(t *testing.T, cfg chaos.Config) (*chaos.Report, time.Duration, float64) {
	t.Helper()
	start := time.Now()
	rep := run(t, cfg)
	wall := time.Since(start)
	simulated := time.Duration(rep.SimSeconds * float64(time.Second))
	return rep, simulated, float64(simulated) / float64(wall)
}

// TestSimFastLongFormEpsilon is the CI `sim-fast` gate: the long-form ε
// measurement — hundreds of write-then-read pairs over a 100-server cluster
// with tens of milliseconds of injected per-call latency, stragglers and
// adaptive hedging — which real-time sleeps made far too slow for CI. Under
// a SimClock it must cover its simulated duration at least 50x faster than
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
	cfg := chaos.Config{
		System: sys, Mode: register.Benign, Ops: 400, Seed: 42, Bound: sys.EpsilonBound(),
		Topology: config.Topology{LatencyMin: 20 * time.Millisecond, LatencyMax: 60 * time.Millisecond},
		Tuning: config.Tuning{
			Spares:        2,
			HedgeDelay:    80 * time.Millisecond,
			AdaptiveHedge: true,
			EagerRead:     true,
		},
		Schedule: chaos.Schedule{chaos.At(0, stragglers(5, 150*time.Millisecond))},
	}
	rep, simulated, speedup := simSpeedup(t, cfg)
	if simulated < 10*time.Second {
		t.Fatalf("run simulated only %v; the latency injection is not reaching the clock", simulated)
	}
	eps := rep.Check.Epsilon
	t.Logf("simulated %v at %.0fx wall speed (ε=%.4f over %d reads, bound %.3g)",
		simulated.Round(time.Millisecond), speedup, eps, rep.Check.Reads, sys.EpsilonBound())
	if speedup < 50 {
		t.Fatalf("virtual time ran only %.1fx faster than wall (%v simulated); want >= 50x", speedup, simulated)
	}
	// The measurement itself must stay sane: the bound check with slack
	// for the finite trial count (the adversarial version lives in the
	// chaos matrix; this is the smoke assertion for the long-form run).
	sigma := math.Sqrt(sys.EpsilonBound() * (1 - sys.EpsilonBound()) / float64(cfg.Ops))
	if eps > sys.EpsilonBound()+3*sigma {
		t.Fatalf("long-form ε %.5f far above bound %.5f", eps, sys.EpsilonBound())
	}
}

// TestSimFastLongFormEpsilonTCP is the virtual-TCP half of the `sim-fast`
// gate: the long-form ε measurement runs through the REAL data plane —
// binary codec, group-commit frame writer, read-loop dispatch — over
// SimClock-scheduled byte streams, with per-chunk latency in the tens of
// milliseconds, stragglers and adaptive hedging. The wire path costs real
// scheduler work (every chunk is a timer whose reply frame completes a
// call into its gather), so the bar is >= 20x rather than the MemNetwork run's 50x;
// what it gates is the same property: simulated seconds must not cost wall
// seconds, now for the code path production actually runs.
//
// Run it alone with: make sim-fast
func TestSimFastLongFormEpsilonTCP(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaos.Config{
		System: sys, Mode: register.Benign, Ops: 200, Seed: 42, Bound: sys.EpsilonBound(),
		Topology: config.Topology{Transport: sim.TransportTCPVirtual, LatencyMin: 10 * time.Millisecond, LatencyMax: 30 * time.Millisecond},
		Tuning: config.Tuning{
			Spares:        2,
			HedgeDelay:    90 * time.Millisecond,
			AdaptiveHedge: true,
			EagerRead:     true,
		},
		Schedule: chaos.Schedule{chaos.At(0, stragglers(5, 80*time.Millisecond))},
	}
	rep, simulated, speedup := simSpeedup(t, cfg)
	if simulated < 5*time.Second {
		t.Fatalf("run simulated only %v; chunk latency is not reaching the byte streams", simulated)
	}
	eps := rep.Check.Epsilon
	t.Logf("virtual TCP: simulated %v at %.0fx wall speed (ε=%.4f over %d reads, bound %.3g)",
		simulated.Round(time.Millisecond), speedup, eps, rep.Check.Reads, sys.EpsilonBound())
	if speedup < 20 {
		t.Fatalf("virtual TCP ran only %.1fx faster than wall (%v simulated); want >= 20x", speedup, simulated)
	}
	sigma := math.Sqrt(sys.EpsilonBound() * (1 - sys.EpsilonBound()) / float64(cfg.Ops))
	if eps > sys.EpsilonBound()+3*sigma {
		t.Fatalf("long-form ε %.5f far above bound %.5f", eps, sys.EpsilonBound())
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
	base := chaos.Config{
		System: sys, Mode: register.Benign, Ops: 500, Seed: 23,
		Topology: config.Topology{LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond},
		Schedule: chaos.Schedule{chaos.At(0, stragglers(4, 25*time.Millisecond), chaos.Drop(0.08))},
	}
	hedged := base
	hedged.Tuning = config.Tuning{Spares: 3, HedgeDelay: 5 * time.Millisecond, AdaptiveHedge: true, EagerRead: true}

	rb, rh := run(t, base), run(t, hedged)
	eb, eh := rb.Check.Epsilon, rh.Check.Epsilon
	sigma := math.Sqrt(math.Max(eb, 0.01) * (1 - eb) / float64(base.Ops))
	t.Logf("ε unhedged %.4f, adaptive-hedged %.4f (3σ slack %.4f), hedged run simulated %.3fs vs %.3fs",
		eb, eh, 3*sigma, rh.SimSeconds, rb.SimSeconds)
	if eh > eb+3*sigma {
		t.Fatalf("adaptive hedging degraded ε: %.4f hedged vs %.4f unhedged (+3σ = %.4f)", eh, eb, eb+3*sigma)
	}
	// And it must actually have hedged something: the straggler subset
	// plus drops guarantee promotions, so a zero here means the knob was
	// silently disconnected.
	if rh.SimSeconds >= rb.SimSeconds {
		t.Fatalf("hedged run was not faster in virtual time (%.3fs vs %.3fs); hedging is not engaging",
			rh.SimSeconds, rb.SimSeconds)
	}
}
