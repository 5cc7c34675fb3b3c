// Package sim is the Monte-Carlo harness that validates the paper's
// analytic results against the actual protocol implementation: it stands up
// clusters of replicas on the simulated network, injects crash and
// Byzantine failures, drives the register client, and measures
//
//   - empirical consistency error (the ε of Theorems 3.2, 4.2 and 5.2),
//   - empirical per-server load (Definition 2.4), and
//   - empirical availability (failure probability, Definition 2.6).
//
// Every measurement is deterministic given its seed.
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/replica"
	"pqs/internal/sv"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
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
// virtual: instant to execute, deterministic to replay). NewTCPCluster
// wraps the whole Cluster, so every cell's replicas get byte streams.
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

// ConsistencyConfig drives MeasureConsistency.
type ConsistencyConfig struct {
	// Tuning is the access-tuning block handed to the client, so the
	// empirical ε can be measured with hedging, early completion and read
	// repair in effect. Spares requires System to implement
	// quorum.SpareSampler.
	config.Tuning
	// Topology is the shape block: Cells/CellVnodes make the measurement
	// cell-partitioned. On TransportTCPVirtual (requires Virtual) the
	// measured ε covers the deployed read/write path, and the latency,
	// straggler and drop knobs configure the byte-stream network (per-chunk
	// draws; DropProb resets connections, the stream analogue of a lost
	// call). Latency is what makes hedge timers meaningful under Virtual:
	// without it every reply is instant and no hedge ever fires.
	config.Topology
	// System is the quorum system under test (carrier + strategy).
	System quorum.System
	// Mode selects the protocol; K is the masking threshold.
	Mode register.Mode
	K    int
	// B Byzantine servers (ids 0..B-1) are installed for Dissemination and
	// Masking modes: forgers colluding on a fabricated value with an
	// overwhelming timestamp (the strongest adversary the analysis covers,
	// since timestamp order decides among accepted candidates). Ignored in
	// Benign mode.
	B int
	// Trials is the number of independent write-then-read experiments.
	Trials int
	// Seed makes the run reproducible.
	Seed int64

	// DropProb makes the simulated network lose each call with this
	// probability, forcing failure-triggered spare promotion.
	DropProb float64

	// Virtual runs the measurement under a fresh vtime.SimClock: simulated
	// latency and hedge timers execute in virtual time, so a run that
	// simulates minutes completes in wall milliseconds AND is bit-for-bit
	// deterministic even with hedging enabled — the configuration the
	// wall clock could never replay.
	Virtual bool
	// StragglerN and StragglerLatency, when StragglerN > 0, override the
	// latency of servers 0..StragglerN-1 to exactly StragglerLatency,
	// modelling a slow subset the hedge should route around.
	StragglerN       int
	StragglerLatency time.Duration
}

// ConsistencyResult summarizes a consistency measurement.
type ConsistencyResult struct {
	Trials int
	// Correct counts reads that returned the last written value.
	Correct int
	// Stale counts reads that returned an older genuine value or found
	// nothing.
	Stale int
	// Fooled counts reads that returned a fabricated value.
	Fooled int
	// Rate is the empirical failure probability (1 - Correct/Trials): the
	// quantity Theorems 3.2/4.2/5.2 bound by ε.
	Rate float64
	// SimElapsed is the virtual time the run consumed (zero unless
	// ConsistencyConfig.Virtual): the "simulated seconds" side of the
	// speedup a SimClock buys over real-time sleeps.
	SimElapsed time.Duration
}

// MeasureConsistency runs write-then-read trials (reads never concurrent
// with writes, matching the theorems' premise) and reports how often the
// read missed the last written value. With cfg.Virtual the whole
// measurement executes inside a vtime.SimClock scheduler.
func MeasureConsistency(cfg ConsistencyConfig) (ConsistencyResult, error) {
	if !cfg.Virtual {
		return measureConsistency(cfg, nil)
	}
	sc := vtime.NewSimClock()
	var res ConsistencyResult
	var err error
	sc.Run(func() {
		res, err = measureConsistency(cfg, sc)
	})
	return res, err
}

// measureConsistency is the measurement body, running on clk (nil = wall;
// under a SimClock the caller is a registered scheduler worker).
func measureConsistency(cfg ConsistencyConfig, clk *vtime.SimClock) (ConsistencyResult, error) {
	if cfg.Trials <= 0 {
		return ConsistencyResult{}, errors.New("sim: Trials must be positive")
	}
	if cfg.System == nil {
		return ConsistencyResult{}, errors.New("sim: System is required")
	}
	n := cfg.System.N()
	var netClk vtime.Clock // avoid a typed-nil *SimClock inside the interface
	if clk != nil {
		netClk = clk
	}
	cluster := NewCluster(config.Cluster{Cells: cfg.Cells, N: n, Seed: cfg.Seed, Clock: netClk})
	var callTransport transport.Transport = cluster.Net
	switch cfg.Transport {
	case "", TransportMem:
		if cfg.DropProb > 0 {
			cluster.Net.SetDropProb(cfg.DropProb)
		}
		if cfg.LatencyMax > 0 {
			cluster.Net.SetLatency(cfg.LatencyMin, cfg.LatencyMax)
		}
		for i := 0; i < cfg.StragglerN && i < n; i++ {
			cluster.Net.SetServerLatency(quorum.ServerID(i), cfg.StragglerLatency, cfg.StragglerLatency)
		}
	case TransportTCPVirtual:
		if clk == nil {
			return ConsistencyResult{}, errors.New("sim: Transport tcp-virtual requires Virtual")
		}
		tc, err := NewTCPCluster(cluster, clk, cfg.Seed+0x7C9, TCPClusterOptions{})
		if err != nil {
			return ConsistencyResult{}, err
		}
		defer tc.Close()
		if cfg.DropProb > 0 {
			tc.Net.SetDrop(cfg.DropProb)
		}
		if cfg.LatencyMax > 0 {
			tc.Net.SetLatency(cfg.LatencyMin, cfg.LatencyMax)
		}
		for i := 0; i < cfg.StragglerN && i < n; i++ {
			tc.Net.SetServerLatency(quorum.ServerID(i), cfg.StragglerLatency, cfg.StragglerLatency)
		}
		callTransport = tc.Client
	default:
		return ConsistencyResult{}, fmt.Errorf("sim: unknown Transport %q", cfg.Transport)
	}

	opts := register.Options{
		System:     cfg.System,
		Mode:       cfg.Mode,
		K:          cfg.K,
		Transport:  callTransport,
		Rand:       rand.New(rand.NewSource(cfg.Seed + 1)),
		Clock:      ts.NewClock(1),
		Time:       netClk,
		Tuning:     cfg.Tuning,
		Cells:      cfg.Cells,
		RingVnodes: cfg.CellVnodes,
	}

	forgedValue := []byte("\x00fabricated")
	switch cfg.Mode {
	case register.Benign:
	case register.Dissemination:
		kp, err := sv.GenerateKey(SeededReader(cfg.Seed + 2))
		if err != nil {
			return ConsistencyResult{}, err
		}
		reg := sv.NewRegistry()
		if err := reg.Add(1, kp.Public); err != nil {
			return ConsistencyResult{}, err
		}
		opts.Signer = kp.Private
		opts.Registry = reg
		installForgers(cluster, cfg.B, forgedValue)
	case register.Masking:
		installForgers(cluster, cfg.B, forgedValue)
	default:
		return ConsistencyResult{}, fmt.Errorf("sim: unsupported mode %v", cfg.Mode)
	}

	client, err := register.NewClient(opts)
	if err != nil {
		return ConsistencyResult{}, err
	}

	ctx := context.Background()
	res := ConsistencyResult{Trials: cfg.Trials}
	for i := 0; i < cfg.Trials; i++ {
		key := fmt.Sprintf("k%d", i)
		want := fmt.Sprintf("v%d", i)
		if _, err := client.Write(ctx, key, []byte(want)); err != nil {
			return res, fmt.Errorf("sim: trial %d write: %w", i, err)
		}
		rr, err := client.Read(ctx, key)
		if err != nil {
			return res, fmt.Errorf("sim: trial %d read: %w", i, err)
		}
		switch {
		case rr.Found && string(rr.Value) == want:
			res.Correct++
		case rr.Found && string(rr.Value) == string(forgedValue):
			res.Fooled++
		default:
			res.Stale++
		}
	}
	res.Rate = 1 - float64(res.Correct)/float64(res.Trials)
	client.WaitDrained() // retire background drains before the cluster goes away
	if clk != nil {
		// Read on the run's own worker, before the deferred teardown, whose
		// delivery timers fire in Go-scheduler order (see load.run).
		res.SimElapsed = clk.Elapsed()
	}
	return res, nil
}

// installForgers makes servers 0..b-1 collude on a fabricated value with an
// overwhelming timestamp.
func installForgers(c *Cluster, b int, value []byte) {
	forged := replica.Forger{
		Value: value,
		Stamp: ts.Stamp{Counter: math.MaxUint64 / 2, Writer: 0xFFFF},
		Sig:   []byte("no-valid-signature"),
	}
	for i := 0; i < b && i < len(c.Replicas); i++ {
		c.Replicas[i].SetBehavior(forged)
	}
}

// SeededReader returns a deterministic entropy source for reproducible
// signing keys (shared by the sim and chaos harnesses). The stream
// advances across Reads like a real entropy source.
func SeededReader(seed int64) io.Reader {
	return &seededReader{rng: rand.New(rand.NewSource(seed))}
}

type seededReader struct{ rng *rand.Rand }

func (s *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Intn(256))
	}
	return len(p), nil
}

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
	rng := rand.New(rand.NewSource(seed))
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
	rng := rand.New(rand.NewSource(seed))
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

// CrashConsistencyConfig drives MeasureConsistencyUnderCrashes: benign-mode
// consistency where a random fraction of servers crash between the write
// and the read. This exercises the interplay of availability and
// consistency that motivates fault tolerance A = n - q + 1.
type CrashConsistencyConfig struct {
	System quorum.System
	// CrashP is each server's independent crash probability after the write.
	CrashP float64
	Trials int
	Seed   int64
}

// CrashConsistencyResult summarizes MeasureConsistencyUnderCrashes.
type CrashConsistencyResult struct {
	Trials int
	// Correct, Stale: as in ConsistencyResult.
	Correct int
	Stale   int
	// Unavailable counts trials where the read got no replies at all.
	Unavailable int
	Rate        float64
}

// MeasureConsistencyUnderCrashes writes, crashes servers with probability
// CrashP, then reads (best effort). Crashed quorum members simply do not
// reply; the read works with what answers.
func MeasureConsistencyUnderCrashes(cfg CrashConsistencyConfig) (CrashConsistencyResult, error) {
	if cfg.Trials <= 0 {
		return CrashConsistencyResult{}, errors.New("sim: Trials must be positive")
	}
	n := cfg.System.N()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := CrashConsistencyResult{Trials: cfg.Trials}
	ctx := context.Background()
	for i := 0; i < cfg.Trials; i++ {
		cluster := NewCluster(config.Cluster{N: n, Seed: cfg.Seed + int64(i)})
		client, err := register.NewClient(register.Options{
			System:    cfg.System,
			Mode:      register.Benign,
			Transport: cluster.Net,
			Rand:      rand.New(rand.NewSource(cfg.Seed + int64(i)*31 + 7)),
			Clock:     ts.NewClock(1),
		})
		if err != nil {
			return res, err
		}
		key, want := "x", fmt.Sprintf("v%d", i)
		if _, err := client.Write(ctx, key, []byte(want)); err != nil {
			return res, fmt.Errorf("sim: trial %d write: %w", i, err)
		}
		for id := 0; id < n; id++ {
			if rng.Float64() < cfg.CrashP {
				cluster.Net.Crash(quorum.ServerID(id))
			}
		}
		rr, err := client.Read(ctx, key)
		switch {
		case errors.Is(err, register.ErrNoReplies):
			res.Unavailable++
			continue
		case err != nil:
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
