package sim

import (
	"context"
	"errors"
	"fmt"

	"pqs/internal/config"
	"pqs/internal/diffusion"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/ts"
)

// ConsistencyResult summarizes MeasureDiffusionConsistency.
type ConsistencyResult struct {
	Trials int
	// Correct counts reads that returned the last written value; Stale
	// counts the rest (an older value, or nothing).
	Correct int
	Stale   int
	// Rate is the empirical failure probability, 1 - Correct/Trials.
	Rate float64
}

// MeasureDiffusionConsistency measures the Section 1.1 claim that a
// diffusion mechanism drives the effective ε toward zero for updates
// sufficiently dispersed in time: each trial writes under the benign
// protocol, lets the cluster run the given number of synchronized push-pull
// gossip rounds (with the given fanout), then reads, on a fresh cluster per
// trial. With rounds = 0 the rate reproduces the construction's ε; as
// rounds grow past the O(log n) epidemic spreading time the rate drops to
// zero.
func MeasureDiffusionConsistency(sys quorum.System, rounds, fanout, trials int, seed int64) (ConsistencyResult, error) {
	if trials <= 0 {
		return ConsistencyResult{}, errors.New("sim: trials must be positive")
	}
	if rounds < 0 || fanout < 1 {
		return ConsistencyResult{}, errors.New("sim: rounds must be >= 0 and fanout >= 1")
	}
	res := ConsistencyResult{Trials: trials}
	ctx := context.Background()
	for i := 0; i < trials; i++ {
		cluster := NewCluster(config.Cluster{N: sys.N(), Seed: seed + int64(i)*13})
		// Trial i's gossip group is keyed by a draw from its client's stream.
		rng := quorum.NewRand(seed, quorum.StreamClient, uint64(i))
		client, err := register.NewClient(register.Options{
			System:    sys,
			Mode:      register.Benign,
			Transport: cluster.Net,
			Rand:      rng,
			Clock:     ts.NewClock(1),
		})
		if err != nil {
			return res, err
		}
		group, err := diffusion.NewGroup(cluster.Replicas, cluster.Net, fanout, nil, rng.Int63(), nil)
		if err != nil {
			return res, err
		}
		key, want := "x", fmt.Sprintf("v%d", i)
		if _, err := client.Write(ctx, key, []byte(want)); err != nil {
			return res, fmt.Errorf("sim: trial %d write: %w", i, err)
		}
		for r := 0; r < rounds; r++ {
			if err := group.Step(ctx); err != nil {
				return res, err
			}
		}
		rr, err := client.Read(ctx, key)
		if err != nil {
			return res, fmt.Errorf("sim: trial %d read: %w", i, err)
		}
		if rr.Found && string(rr.Value) == want {
			res.Correct++
		} else {
			res.Stale++
		}
	}
	res.Rate = 1 - float64(res.Correct)/float64(res.Trials)
	return res, nil
}
