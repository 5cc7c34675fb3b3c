// Package sim stands up the simulated clusters the harnesses run on —
// replicas on an in-process MemNetwork (Cluster), and World, the one way
// chaos and load build, fault and churn such a cluster under a SimClock on
// either data plane (the MemNetwork, or the real TCP stack over
// virtual-time byte streams) and count its membership views — and measures
// what needs no operation history:
//
//   - empirical per-server load (Definition 2.4),
//   - empirical availability (failure probability, Definition 2.6), and
//   - the diffusion strengthening of Section 1.1.
//
// The empirical ε of Theorems 3.2, 4.2 and 5.2 is chaos.Run's: it drives a
// client against these clusters under a fault schedule and judges the
// recorded history with chaos.Check. Every measurement is deterministic
// given its seed.
package sim

import (
	"errors"
	"fmt"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
)

// Cluster is a set of replicas on a simulated network.
type Cluster struct {
	Net      *transport.MemNetwork
	Replicas []*replica.Replica
}

// NewCluster builds a cluster from the config.Cluster options struct shared
// with the public pqs.NewCluster: Cells × N replicas (Cells 0 or 1 = single
// cell, otherwise cell i owns global ids [i·N, (i+1)·N) as a cell-
// partitioned client with register.Options.Cells = Cells expects) on one
// simulated network, with the network's latency on cfg.Clock (nil = wall
// clock; the harnesses pass a vtime.SimClock so simulated latency is
// virtual: instant to execute, deterministic to replay). NewWorld builds
// one on either plane; on tcp-virtual every cell's replicas get byte
// streams.
func NewCluster(cfg config.Cluster) *Cluster {
	c := &Cluster{Net: transport.NewMemNetwork(cfg.Seed)}
	c.Net.SetClock(cfg.Clock)
	total := cfg.Total()
	for i := 0; i < total; i++ {
		r := replica.New(quorum.ServerID(i))
		c.Replicas = append(c.Replicas, r)
		c.Net.Register(quorum.ServerID(i), r)
	}
	return c
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.Replicas) }

// LoadResult summarizes an empirical load measurement.
type LoadResult struct {
	// Trials is the number of quorums sampled.
	Trials int
	// MaxRate is the access frequency of the busiest server: the empirical
	// load L_w(Q) of Definition 2.4.
	MaxRate float64
	// MeanRate is the average access frequency, E|Q|/n.
	MeanRate float64
	// PerServer is each server's access frequency.
	PerServer []float64
}

// MeasureLoad samples quorums under the system's strategy and reports
// per-server access frequencies.
func MeasureLoad(sys quorum.System, trials int, seed int64) (LoadResult, error) {
	if trials <= 0 {
		return LoadResult{}, errors.New("sim: trials must be positive")
	}
	rng := quorum.NewRand(seed, quorum.StreamPicks, 0)
	counts := make([]int, sys.N())
	for i := 0; i < trials; i++ {
		for _, id := range sys.Pick(rng) {
			counts[id]++
		}
	}
	res := LoadResult{Trials: trials, PerServer: make([]float64, sys.N())}
	var sum float64
	for i, c := range counts {
		f := float64(c) / float64(trials)
		res.PerServer[i] = f
		sum += f
		if f > res.MaxRate {
			res.MaxRate = f
		}
	}
	res.MeanRate = sum / float64(sys.N())
	return res, nil
}

// MeasureAvailability estimates the failure probability F_p by sampling
// crash patterns (each server down independently with probability p) and
// checking for a live quorum. The system must implement quorum.LiveChecker.
func MeasureAvailability(sys quorum.System, p float64, trials int, seed int64) (float64, error) {
	checker, ok := sys.(quorum.LiveChecker)
	if !ok {
		return 0, fmt.Errorf("sim: %s does not support live-quorum checking", sys.Name())
	}
	if trials <= 0 {
		return 0, errors.New("sim: trials must be positive")
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("sim: crash probability %v outside [0,1]", p)
	}
	rng := quorum.NewRand(seed, quorum.StreamCrashes, 0)
	n := sys.N()
	crashed := make([]bool, n)
	failures := 0
	for t := 0; t < trials; t++ {
		for i := range crashed {
			crashed[i] = rng.Float64() < p
		}
		if !checker.LiveQuorumExists(func(id quorum.ServerID) bool { return crashed[id] }) {
			failures++
		}
	}
	return float64(failures) / float64(trials), nil
}
