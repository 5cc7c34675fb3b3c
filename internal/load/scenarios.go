// The scale/ scenario matrix: the named population-scale points that
// cmd/pqs-chaos -load, `make sim-scale` and CI all run. Together the
// matrix covers over a million operations — four n=1000 points with 10k
// clients (steady, read-heavy, churn, churn-storm), an n=2000 surge, and
// a reduced-scale point on the real TCP stack — each recording its ε,
// staleness-depth and tail-latency record into BENCH_epsilon.json and
// replaying byte-for-byte from its seed.
package load

import (
	"time"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/sim"
)

// Scenario is one named scale point.
type Scenario struct {
	Name string
	// Doc is a one-line description for -list and the README.
	Doc string
	// Build instantiates the scale point at the given seed.
	Build func(seed int64) (Config, error)
}

// scaleTuning is the latency-phase access tuning every mem scale point
// uses: hedged, spare-backed, eager — the full straggler-tolerant path.
var scaleTuning = config.Tuning{
	Spares:        2,
	HedgeDelay:    2 * time.Millisecond,
	AdaptiveHedge: true,
	EagerRead:     true,
}

// scaleLatency is the latency model of the tail phase.
var scaleLatency = config.Topology{
	LatencyMin: 200 * time.Microsecond,
	LatencyMax: 800 * time.Microsecond,
}

// Scenarios returns the shipped scale matrix.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "scale/steady",
			Doc:  "n=1000, 10k clients, 230k ops at 1ms mean arrivals; empirical ε of R(n, 2√n) vs e^{-ℓ²}, plus hedged tail percentiles",
			Build: func(seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(1000, 2)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "scale/steady", System: sys,
					Clients: 10000, Arrivals: 12,
					Seed: seed, Bound: sys.EpsilonBound(),
					Tuning: scaleTuning, Topology: scaleLatency,
					LatencyOps: 4000,
				}, nil
			},
		},
		{
			Name: "scale/read-heavy",
			Doc:  "n=1000, 10k clients, 220k ops at an 80% read mix; re-read keys re-sample quorums, so ε must hold per read, not per key",
			Build: func(seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(1000, 2)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "scale/read-heavy", System: sys,
					Clients: 10000, Arrivals: 22, ReadFraction: 0.8,
					Seed: seed, Bound: sys.EpsilonBound(),
					Tuning: scaleTuning, Topology: scaleLatency,
					LatencyOps: 4000,
				}, nil
			},
		},
		{
			Name: "scale/churn",
			Doc:  "n=1000, 10k clients, 230k ops under 12 replacement waves of 25 servers; ops carry membership views and the run is gated by the time-decayed timed-quorum bound ε(D)",
			Build: func(seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(1000, 2)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "scale/churn", System: sys,
					Clients: 10000, Arrivals: 12,
					Waves: 12, WaveSize: 25,
					GossipWaveRounds: 1,
					Seed:             seed, Bound: sys.EpsilonBound(),
					Tuning: scaleTuning, Topology: scaleLatency,
					LatencyOps: 4000,
				}, nil
			},
		},
		{
			Name: "scale/churn-storm",
			Doc:  "n=1000, 10k clients, 230k ops under 16 waves of 50 replacements PLUS 10 fail-stop crashes mid-run; the decayed bound must absorb the storm while crashes (no view movement) stay inside the base margin",
			Build: func(seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(1000, 2)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "scale/churn-storm", System: sys,
					Clients: 10000, Arrivals: 12,
					Waves: 16, WaveSize: 50, CrashN: 10,
					Seed: seed, Bound: sys.EpsilonBound(),
					Tuning: scaleTuning, Topology: scaleLatency,
					LatencyOps: 4000,
				}, nil
			},
		},
		{
			Name: "scale/surge-2k",
			Doc:  "n=2000, 10k clients, 110k ops; the quorum ℓ drops to 1.8 so the bound is looser but the universe doubles — the q≈ℓ√n load/consistency trade at the next scale step",
			Build: func(seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(2000, 1.8)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "scale/surge-2k", System: sys,
					Clients: 10000, Arrivals: 6,
					Seed: seed, Bound: sys.EpsilonBound(),
					Tuning: scaleTuning, Topology: scaleLatency,
					LatencyOps: 4000,
				}, nil
			},
		},
		{
			Name: "scale/tcp",
			Doc:  "n=144 on the REAL TCP stack (framing, binary codec, virtual byte streams) at reduced scale: a sequential issuer drives 6k ops, pinning the scale harness to the production wire path",
			Build: func(seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(144, 2)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "scale/tcp", System: sys,
					Clients: 1, Arrivals: 3000,
					Seed: seed, Bound: sys.EpsilonBound(),
					Tuning: scaleTuning,
					Topology: config.Topology{
						Transport:  sim.TransportTCPVirtual,
						LatencyMin: scaleLatency.LatencyMin,
						LatencyMax: scaleLatency.LatencyMax,
					},
					LatencyOps: 2000,
				}, nil
			},
		},
	}
}

// NegativeConfig is the intentionally failing scale configuration (run by
// cmd/pqs-chaos -load -negative and the negative test): a view-blind
// timed run under brutal churn — 40% of the universe replaced per wave,
// ten waves — whose ops all claim view 0. Every read lands in the D=0
// bucket, the decayed allowance never applies, and the observed staleness
// overshoots the flat bound by an enormous margin. The gate MUST fail it;
// it is not part of Scenarios().
func NegativeConfig(seed int64) (Config, error) {
	sys, err := core.NewEpsilonIntersectingEll(300, 2)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Name: "negative/view-blind", System: sys,
		Clients: 2000, Arrivals: 12,
		Waves: 10, WaveSize: 120, ViewBlind: true,
		Seed: seed, Bound: sys.EpsilonBound(),
	}, nil
}
