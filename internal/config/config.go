// Package config holds the configuration blocks shared by every layer that
// builds or drives the register client — register.Options, the public
// pqs.ClientConfig, the adversarial chaos.Config (the one write-then-read ε
// loop) and the population-scale load.Config:
//
//   - Tuning: the access-tuning knobs (straggler tolerance, hedging, early
//     completion, read repair). Declared and documented here, once;
//     register.Options embeds the block and every config above embeds it
//     too, so a harness hands its block to the client as Tuning: cfg.Tuning.
//   - Topology: the cluster-shape knobs (cells, data plane, latency model).
//   - Cluster: the layout pqs.NewCluster and sim.NewCluster build.
//
// A reflection test at the repo root (config_parity_test.go) pins the rule
// that no config struct grows a private copy of one of these knobs.
//
// The package is deliberately leaf-level (it imports only vtime), so the
// public API, the client, the harnesses and the load generator can all share
// it without cycles.
package config

import (
	"time"

	"pqs/internal/vtime"
)

// Tuning is the access-tuning block: the straggler-tolerance and
// consistency/latency trade-off knobs of the register client. Zero values
// mean "protocol default" everywhere, so an all-zero Tuning is the classic
// wait-for-all client.
type Tuning struct {
	// Spares is the number of extra servers sampled alongside every access
	// set (oversampling). A spare is dispatched ("promoted") when a member's
	// call fails, or each time HedgeDelay elapses without the operation
	// completing. Requires a system that implements quorum.SpareSampler.
	//
	// Promotion preserves the attempt-level ε argument documented on
	// register.RetryingClient: spares are drawn by the same strategy and
	// promoted only on observed failure or on an identity-blind timer, so
	// the access set that completes is the strategy's sample conditioned on
	// liveness — the same conditioning a full re-sample performs. With
	// spares in play, RequireFullWrite is satisfied by quorum-size
	// acknowledgements, whether they came from original members or promoted
	// spares.
	Spares int
	// HedgeDelay, when positive, promotes one spare each time this delay
	// elapses before the operation completes (latency hedging). Zero means
	// spares are promoted only on observed member failure. With
	// AdaptiveHedge set this is only the bootstrap value used until the
	// latency estimator has warmed up.
	HedgeDelay time.Duration
	// AdaptiveHedge derives the hedge delay from an online latency
	// estimate instead of the fixed HedgeDelay: the client keeps a pooled
	// EWMA of reply latency (SRTT) and an EWMA of its deviation (RTTVAR,
	// Jacobson/Karels gains) and hedges at SRTT + 4·RTTVAR —
	// an upper-quantile estimate that tracks the cluster as it speeds up
	// or degrades. Per-server EWMAs are kept for observability
	// (ServerLatencies) but never steer the delay: the hedge timer stays a
	// function of pooled history from past operations only, independent of
	// which servers the current access set contains, preserving the
	// identity-blind-timer premise of the ε argument above. Requires
	// Spares > 0 and a positive HedgeDelay (the pre-warmup bootstrap).
	AdaptiveHedge bool
	// EagerRead makes Read return as soon as the mode's acceptance rule is
	// decidable instead of waiting for every dispatched call:
	//
	//   - Benign: quorum-size replies collected;
	//   - Dissemination: quorum-size replies of which at least one verifies —
	//     decided by the same on-demand selection the read finishes with
	//     (highest timestamp first, stop at the first valid signature), so
	//     no reply is ever verified twice and a late reply at or below the
	//     best verified stamp is not verified at all;
	//   - Masking: some pair holds K vouchers and no rival (seen or unseen)
	//     can still reach K with the replies outstanding.
	//
	// Remaining replies are drained in the background (see Client.Stats and
	// Client.WaitDrained); with ReadRepair set, late stale repliers are
	// repaired from the drain as well.
	EagerRead bool
	// W, when between 1 and the quorum size, completes Write as soon as W
	// members acknowledged, leaving the rest to the background drain. Zero
	// (or RequireFullWrite) keeps the default: wait for the full access set.
	// W below the quorum size trades a further ε degradation for latency,
	// exactly as best-effort writes already do; the calls already in flight
	// keep delivering the write to the remaining members as long as the
	// operation's context stays live (cancelling it aborts them).
	W int
	// ReadRepair pushes the value a read accepted back to the read-quorum
	// members observed to be stale, with its original signature. Valid in
	// Benign and Dissemination modes; rejected in Masking mode, where a
	// fooled read must not persist a fabricated value onto correct servers.
	ReadRepair bool
}

// Topology is the cluster-shape block shared by every harness config: how
// many quorum cells, which data plane, and the simulated latency model; the
// per-cell replica count is the quorum system's N(). Zero values mean
// "single cell, mem plane, no injected latency".
type Topology struct {
	// Cells partitions the keyspace across this many quorum cells (0 or 1 =
	// the classic single-cell layout), routed by a ring with
	// ring.DefaultVnodes virtual nodes per cell.
	Cells int
	// Transport selects the data plane ("mem" or "tcp-virtual"; empty =
	// mem).
	Transport string
	// LatencyMin and LatencyMax, when LatencyMax > 0, give every call a
	// uniform simulated latency in [LatencyMin, LatencyMax].
	LatencyMin, LatencyMax time.Duration
}

// Cluster describes a replica-cluster layout. sim.NewCluster builds it;
// pqs.NewCluster validates it (N positive, Cells not negative) and wraps
// sim.NewCluster's replicas and network in a pqs.LocalCluster.
type Cluster struct {
	// Cells is the quorum-cell count (0 or 1 = single cell).
	Cells int
	// N is the replica count per cell.
	N int
	// Seed fixes the simulated network's randomness.
	Seed int64
	// Clock is the cluster's time source (nil = wall clock). Harnesses pass
	// a vtime.SimClock so simulated latency is virtual and deterministic.
	Clock vtime.Clock
}

// Total returns the total replica count (Cells × N, with Cells clamped to
// at least 1).
func (c Cluster) Total() int {
	cells := c.Cells
	if cells < 1 {
		cells = 1
	}
	return cells * c.N
}
