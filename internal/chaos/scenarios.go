// The named scenario library: every scenario is a Config builder, so the
// test suite, the CLI (cmd/pqs-chaos) and CI all run the same matrix.
//
// A scenario's Bound is the theorem's ε for its system (Theorem 3.16 for
// ε-intersecting, Theorem 4.4 for dissemination, Theorem 5.10 for masking),
// so the checker enforces exactly the paper's claim under that scenario's
// adversary. Fault intensities are chosen so the premise degradation the
// theorems do not model (partial writes under crashes, etc.) is absorbed by
// the eligibility filter (CheckResult.EligibleReads) and the runs pass with
// real margin; the negative scenario shows the checker has teeth.
package chaos

import (
	"time"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/transport"
)

// Scenario is one named entry of the chaos matrix.
type Scenario struct {
	Name string
	// Doc is a one-line description for -list and the README.
	Doc string
	// Build instantiates the scenario at the given scale (trial-count
	// multiplier; 1 is the CI-friendly short run) and seed.
	Build func(scale int, seed int64) (Config, error)
}

// baseN is the universe size every shipped single-cell scenario uses.
const baseN = 100

// cellN is the per-cell universe size of the cells/ scenarios: 4 cells of
// 25 servers keep the total at baseN, so multi-cell runs cost the same as
// the rest of the matrix.
const cellN = 25

// ids returns [from, from+count) as server ids.
func ids(from, count int) []quorum.ServerID {
	out := make([]quorum.ServerID, count)
	for i := range out {
		out[i] = quorum.ServerID(from + i)
	}
	return out
}

// Scenarios returns the shipped scenario library. Every entry passes its
// theorem bound; run them via cmd/pqs-chaos or the chaos tests.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "benign/calm",
			Doc:  "no faults; empirical ε of R(n, 3√n) vs the e^{-ℓ²} bound of Theorem 3.16",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 3)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "benign/calm", System: sys, Mode: register.Benign,
					Ops: 150 * scale, Seed: seed, Bound: sys.EpsilonBound(),
				}, nil
			},
		},
		{
			Name: "benign/lossy-dup-reorder",
			Doc:  "2% deterministic loss + 10% duplication + delivery-delay jitter; loss shrinks write coverage, duplication and shuffled reply arrival must be harmless",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 2.5)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "benign/lossy-dup-reorder", System: sys, Mode: register.Benign,
					Ops: 150 * scale, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(0, Drop(0.02), Duplicate(0.10), Reorder(200*time.Microsecond)),
					},
				}, nil
			},
		},
		{
			Name: "benign/crash-wave",
			Doc:  "8 servers crash mid-run and recover later; reads over the gap must stay within ε",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 2.5)
				if err != nil {
					return Config{}, err
				}
				ops := 150 * scale
				return Config{
					Name: "benign/crash-wave", System: sys, Mode: register.Benign,
					Ops: ops, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(ops/3, Crash(ids(20, 8)...)),
						At(2*ops/3, Recover(ids(20, 8)...)),
					},
				}, nil
			},
		},
		{
			Name: "benign/partition-flap",
			Doc:  "an asymmetric partition (inbound links cut) flaps on and off twice",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 2.5)
				if err != nil {
					return Config{}, err
				}
				ops := 150 * scale
				group := ids(90, 8)
				return Config{
					Name: "benign/partition-flap", System: sys, Mode: register.Benign,
					Ops: ops, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(ops/5, BlockInbound(group...)),
						At(2*ops/5, Heal()),
						At(3*ops/5, BlockInbound(group...)),
						At(4*ops/5, Heal()),
					},
				}, nil
			},
		},
		{
			Name: "benign/churn",
			Doc:  "6 servers leave the membership mid-run and rejoin empty later; delta gossip keeps converging across the membership change (rejoiners are first contact again)",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 2.5)
				if err != nil {
					return Config{}, err
				}
				ops := 150 * scale
				churned := ids(40, 6)
				return Config{
					Name: "benign/churn", System: sys, Mode: register.Benign,
					Ops: ops, Seed: seed, Bound: sys.EpsilonBound(),
					GossipEvery: 5,
					Schedule: Schedule{
						At(ops/3, Leave(churned...)),
						At(2*ops/3, Join(churned...)),
					},
				}, nil
			},
		},
		{
			Name: "benign/churn-timed",
			Doc:  "four replacement waves (leave + rejoin empty, 5 servers each) with lagged reads; every op carries the membership-view version and the checker enforces the TIME-DECAYED timed-quorum bound ε(D) per churn-depth bucket (Gramoli & Raynal) instead of the flat ε",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 2.5)
				if err != nil {
					return Config{}, err
				}
				ops := 150 * scale
				return Config{
					Name: "benign/churn-timed", System: sys, Mode: register.Benign,
					// Lagged reads make churn waves land BETWEEN a key's write
					// and its read, so the depth buckets D=5,10,... are
					// actually populated (ReadLag < Keys, see Config.ReadLag).
					Ops: ops, Keys: 24, ReadLag: 8,
					Seed: seed, Bound: sys.EpsilonBound(), Timed: true,
					// No gossip: the rejoined-empty stores stay empty until
					// rewritten, so the decay the timed bound allows for is
					// genuinely visible.
					Schedule: Schedule{
						At(ops/5, Leave(ids(10, 5)...), Join(ids(10, 5)...)),
						At(2*ops/5, Leave(ids(30, 5)...), Join(ids(30, 5)...)),
						At(3*ops/5, Leave(ids(50, 5)...), Join(ids(50, 5)...)),
						At(4*ops/5, Leave(ids(70, 5)...), Join(ids(70, 5)...)),
					},
				}, nil
			},
		},
		{
			Name: "benign/slow-lorris",
			Doc:  "10 servers answer ever more slowly; slowness must never affect safety, only latency",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 3)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "benign/slow-lorris", System: sys, Mode: register.Benign,
					Ops: 60 * scale, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(0, SlowDown(20*time.Microsecond, 500*time.Microsecond, ids(0, 10)...)),
					},
				}, nil
			},
		},
		{
			Name: "benign/dial-storm",
			Doc:  "1200 concurrent clients pound one server while it is crashed and again right after it recovers; lifecycle clients (pool + jittered backoff + breaker) absorb the storm through coalesced dials and backoff fast-fails, and the recorded history replays byte-for-byte",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 3)
				if err != nil {
					return Config{}, err
				}
				ops := 60 * scale
				target := quorum.ServerID(7)
				return Config{
					Name: "benign/dial-storm", System: sys, Mode: register.Benign,
					Ops: ops, Seed: seed, Bound: sys.EpsilonBound(),
					// Zero latency: every storm call resolves at one virtual
					// instant, so storm-side scheduling races can never leak
					// into the main client's timing.
					Lifecycle: transport.LifecycleConfig{
						PoolSize:         4,
						DialBackoffBase:  time.Millisecond,
						BreakerThreshold: 3,
						BreakerCooldown:  5 * time.Millisecond,
						Seed:             seed,
					},
					Schedule: Schedule{
						At(ops/4, Crash(target), Storm(target, 1200, 2)),
						At(ops/2, Recover(target), Storm(target, 1200, 2)),
					},
				}, nil
			},
		},
		{
			Name: "benign/flapping-server",
			Doc:  "5 servers crash and recover repeatedly; under tcp-virtual the client's circuit breaker trips on consecutive failures, fast-fails while open, half-opens after the cooldown and closes once the trial succeeds, while spares absorb the gaps",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 2.5)
				if err != nil {
					return Config{}, err
				}
				ops := 90 * scale
				group := ids(10, 5)
				return Config{
					Name: "benign/flapping-server", System: sys, Mode: register.Benign,
					Ops: ops, Seed: seed, Bound: sys.EpsilonBound(),
					// Nonzero latency makes virtual time advance, so breaker
					// cooldowns genuinely elapse and half-open trials run.
					Topology: config.Topology{LatencyMin: 200 * time.Microsecond, LatencyMax: 800 * time.Microsecond},
					Tuning:   config.Tuning{Spares: 2, HedgeDelay: 2 * time.Millisecond, EagerRead: true},
					Lifecycle: transport.LifecycleConfig{
						PoolSize:         2,
						DialBackoffBase:  time.Millisecond,
						BreakerThreshold: 2,
						BreakerCooldown:  2 * time.Millisecond,
						Seed:             seed,
					},
					Schedule: Schedule{
						At(ops/6, Crash(group...)),
						At(2*ops/6, Recover(group...)),
						At(3*ops/6, Crash(group...)),
						At(4*ops/6, Recover(group...)),
						At(5*ops/6, Crash(group...)),
					},
				}, nil
			},
		},
		{
			Name: "wan/slow-link",
			Doc:  "every link byte-limited to 256 KB/s (64 KB/s mid-run) with WAN latency; the compressed codec carries the run under tcp-virtual while delta gossip interleaves — serialization delay stretches tails but ε must stay within the Theorem 3.16 bound",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 2.5)
				if err != nil {
					return Config{}, err
				}
				ops := 150 * scale
				return Config{
					Name: "wan/slow-link", System: sys, Mode: register.Benign,
					Ops: ops, Seed: seed, Bound: sys.EpsilonBound(),
					// Byte rates only exist on the byte-stream plane: on mem
					// the ByteRate actions are documented no-ops and the run
					// degrades to a latency scenario.
					Topology:    config.Topology{LatencyMin: 2 * time.Millisecond, LatencyMax: 8 * time.Millisecond},
					WireCodec:   transport.CodecBinaryFlate,
					GossipEvery: 5,
					Schedule: Schedule{
						At(0, ByteRate(256<<10)),
						At(2*ops/5, ByteRate(64<<10)),
						At(4*ops/5, ByteRate(256<<10)),
					},
				}, nil
			},
		},
		{
			Name: "wan/asym-bandwidth",
			Doc:  "asymmetric WAN access link: 256 KB/s upstream vs 32 KB/s downstream, so reply legs (value-carrying reads, gossip pulls) pay most of the serialization delay; compressed codec, delta gossip, ε within bound",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(baseN, 2.5)
				if err != nil {
					return Config{}, err
				}
				ops := 150 * scale
				return Config{
					Name: "wan/asym-bandwidth", System: sys, Mode: register.Benign,
					Ops: ops, Seed: seed, Bound: sys.EpsilonBound(),
					Topology:    config.Topology{LatencyMin: 2 * time.Millisecond, LatencyMax: 8 * time.Millisecond},
					WireCodec:   transport.CodecBinaryFlate,
					GossipEvery: 5,
					Schedule: Schedule{
						At(0, ByteRateAsym(256<<10, 32<<10)),
						// Flip the asymmetry mid-run: now pushes (writes,
						// gossip deltas) crawl while replies flow.
						At(ops/2, ByteRateAsym(32<<10, 256<<10)),
					},
				}, nil
			},
		},
		{
			Name: "cells/inter-cell-partition",
			Doc:  "4 quorum cells of 25 servers each; an inbound partition isolates cell 2 mid-run and heals, with 2% loss throughout — the per-cell ε sections must each stay within the Theorem 3.16 bound, not just the cross-cell average",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(cellN, 2)
				if err != nil {
					return Config{}, err
				}
				ops := 150 * scale
				return Config{
					Name: "cells/inter-cell-partition", System: sys, Mode: register.Benign,
					Topology: config.Topology{Cells: 4}, Keys: 16,
					Ops: ops, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(0, Drop(0.02)),
						// Cell 2 owns global servers [50, 75).
						At(ops/4, BlockInbound(ids(2*cellN, cellN)...)),
						At(ops/2, Heal(), Drop(0.02)),
					},
				}, nil
			},
		},
		{
			Name: "cells/cell-crash",
			Doc:  "4 quorum cells of 25 servers each; cell 1 crashes WHOLE mid-run and recovers — its keys go unavailable (excluded by the eligibility filter) while the surviving cells' per-cell ε sections must keep passing",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewEpsilonIntersectingEll(cellN, 2)
				if err != nil {
					return Config{}, err
				}
				ops := 150 * scale
				return Config{
					Name: "cells/cell-crash", System: sys, Mode: register.Benign,
					Topology: config.Topology{Cells: 4}, Keys: 16,
					Ops: ops, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						// Cell 1 owns global servers [25, 50).
						At(ops/3, Crash(ids(cellN, cellN)...)),
						At(2*ops/3, Recover(ids(cellN, cellN)...)),
					},
				}, nil
			},
		},
		{
			Name: "cells/dissem-forgers",
			Doc:  "4 dissemination cells with b=5 colluding forgers planted in EVERY cell; signatures must reject all forgeries per cell (Theorem 4.4 bound per cell)",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewDisseminationEll(cellN, 5, 2.8)
				if err != nil {
					return Config{}, err
				}
				forgers := make([]quorum.ServerID, 0, 4*5)
				for cell := 0; cell < 4; cell++ {
					forgers = append(forgers, ids(cell*cellN, 5)...)
				}
				return Config{
					Name: "cells/dissem-forgers", System: sys, Mode: register.Dissemination,
					Topology: config.Topology{Cells: 4}, Keys: 16,
					Ops: 120 * scale, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(0, Collude("forged:cells", forgers...)),
					},
				}, nil
			},
		},
		{
			Name: "dissem/forgers",
			Doc:  "b=10 colluding forgers with overwhelming timestamps; signatures must reject every forgery (a single fooled read is a hard violation)",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewDisseminationEll(baseN, 10, 3.5)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "dissem/forgers", System: sys, Mode: register.Dissemination,
					Ops: 120 * scale, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(0, Collude("forged:dissem", ids(0, sys.B())...)),
					},
				}, nil
			},
		},
		{
			Name: "dissem/corrupt",
			Doc:  "5% frame corruption on every link plus b=10 forgers; corrupted writes store unverifiable garbage that reads must discard",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewDisseminationEll(baseN, 10, 3.5)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "dissem/corrupt", System: sys, Mode: register.Dissemination,
					Ops: 120 * scale, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(0, Corrupt(0.05), Collude("forged:corrupt", ids(0, sys.B())...)),
					},
				}, nil
			},
		},
		{
			Name: "dissem/bad-sig-echo",
			Doc:  "b=10 Byzantine members echo the writer's genuine newest (value, stamp) — five under a bit-flipped signature, five under an older version's genuine one — with read repair on; reads must run and fail real ed25519 checks, none may be fooled, and every entry a correct server holds at the end must still verify under a plain, memory-free check",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewDisseminationEll(baseN, 10, 3.5)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "dissem/bad-sig-echo", System: sys, Mode: register.Dissemination,
					Ops: 120 * scale, Seed: seed, Bound: sys.EpsilonBound(),
					// Repair is what would make a wrongly accepted signature
					// permanent: it writes the accepted reply's signature to
					// servers that never check it.
					Tuning:   config.Tuning{ReadRepair: true},
					SigAudit: true,
					Schedule: Schedule{
						At(0, BadSigEchoes(false, ids(0, 5)...), BadSigEchoes(true, ids(5, 5)...)),
					},
				}, nil
			},
		},
		{
			Name: "masking/colluders",
			Doc:  "a colluding B-set placed on the strategy's most-sampled servers; the threshold k must keep P(fooled) within Theorem 5.10's ε",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewMasking(baseN, 35, 5)
				if err != nil {
					return Config{}, err
				}
				targets, err := MostSampled(sys, sys.B(), 2000, seed)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "masking/colluders", System: sys, Mode: register.Masking,
					Ops: 120 * scale, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(0, Collude("forged:mask", targets...)),
					},
				}, nil
			},
		},
		{
			Name: "masking/equivocate",
			Doc:  "b=8 equivocators hand every reader a different fabricated pair; no pair can reach k vouchers",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewMasking(baseN, 40, 8)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "masking/equivocate", System: sys, Mode: register.Masking,
					Ops: 120 * scale, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(0, Equivocate(ids(0, sys.B())...)),
					},
				}, nil
			},
		},
		{
			Name: "masking/gossip-under-fire",
			Doc:  "diffusion rounds interleave with hedged client traffic while an asymmetric partition flaps and 2% loss arrives; runs virtual (SimClock) with adaptive hedging, checked against the Theorem 5.2 masking bound",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewMasking(baseN, 35, 5)
				if err != nil {
					return Config{}, err
				}
				ops := 150 * scale
				group := ids(70, 8)
				return Config{
					Name: "masking/gossip-under-fire", System: sys, Mode: register.Masking,
					Ops: ops, Seed: seed, Bound: sys.EpsilonBound(),
					// Per-call latency, hedge timers and the diffusion
					// cadence all take virtual time: deterministic, and
					// instant to execute.
					Topology: config.Topology{LatencyMin: 200 * time.Microsecond, LatencyMax: 800 * time.Microsecond},
					Tuning: config.Tuning{
						Spares:        2,
						HedgeDelay:    2 * time.Millisecond,
						AdaptiveHedge: true,
						EagerRead:     true,
					},
					GossipEvery: 3,
					Schedule: Schedule{
						At(ops/5, BlockInbound(group...)),
						At(2*ops/5, Heal()),
						At(3*ops/5, Drop(0.02), BlockInbound(group...)),
						At(4*ops/5, Heal()),
					},
				}, nil
			},
		},
		{
			Name: "masking/stale-echo",
			Doc:  "b=5 stale echoes acknowledge writes they never apply; timestamp order must defeat the old-value attack",
			Build: func(scale int, seed int64) (Config, error) {
				sys, err := core.NewMasking(baseN, 35, 5)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Name: "masking/stale-echo", System: sys, Mode: register.Masking,
					Ops: 120 * scale, Seed: seed, Bound: sys.EpsilonBound(),
					Schedule: Schedule{
						At(0, StaleEchoes(ids(0, sys.B())...)),
					},
				}, nil
			},
		},
	}
}

// NegativeConfig is the intentionally failing configuration the negative
// test (and cmd/pqs-chaos -negative) runs: an overrun masking system —
// b = 20 colluders against threshold k = 3, where the colluders reach the
// threshold in ~80% of reads — checked against a bound (1e-9) far below
// the measured ε. The checker MUST fail it; it is not part of Scenarios().
func NegativeConfig(scale int, seed int64) (Config, error) {
	sys, err := core.NewMaskingWithK(baseN, 20, 20, 3)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Name: "negative/masking-overrun", System: sys, Mode: register.Masking,
		Ops: 40 * scale, Seed: seed, Bound: 1e-9,
		Schedule: Schedule{
			At(0, Collude("forged:overrun", ids(0, sys.B())...)),
		},
	}, nil
}
