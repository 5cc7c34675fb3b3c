package register

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// Deterministic adaptive-hedge tests: everything runs under a
// vtime.SimClock, so the latency distribution, the hedge firings and the
// resulting stats are pure functions of the seed — the CI-testable form of
// the PR 1 "adaptive hedge delay" follow-up.

// newVirtualNet builds a MemNetwork of n correct replicas on clk.
func newVirtualNet(n int, seed int64, clk vtime.Clock) *transport.MemNetwork {
	net := transport.NewMemNetwork(seed)
	net.SetClock(clk)
	for i := 0; i < n; i++ {
		net.Register(quorum.ServerID(i), replica.New(quorum.ServerID(i)))
	}
	return net
}

// adaptiveRun drives ops sequential write/read pairs under a fresh
// SimClock and returns the final stats and the virtual time consumed.
func adaptiveRun(t *testing.T, opts func(net *transport.MemNetwork) Options, ops int) (AccessStats, time.Duration) {
	t.Helper()
	clk := vtime.NewSimClock()
	var stats AccessStats
	var elapsed time.Duration
	var failed error
	clk.Run(func() {
		net := newVirtualNet(10, 7, clk)
		o := opts(net)
		o.Transport = net
		o.Time = clk
		c, err := NewClient(o)
		if err != nil {
			failed = err
			return
		}
		ctx := context.Background()
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("k%d", i)
			if _, err := c.Write(ctx, key, []byte("v")); err != nil {
				failed = fmt.Errorf("write %d: %w", i, err)
				return
			}
			if _, err := c.Read(ctx, key); err != nil {
				failed = fmt.Errorf("read %d: %w", i, err)
				return
			}
		}
		c.WaitDrained()
		stats = c.Stats()
		// Read on this worker: after Run returns, the clock has also covered
		// the idle dispatch workers' retirement.
		elapsed = clk.Elapsed()
	})
	if failed != nil {
		t.Fatal(failed)
	}
	return stats, elapsed
}

// baseOptions is the shared 10-server, quorum-3 configuration.
func baseOptions(t *testing.T) Options {
	t.Helper()
	sys, err := quorum.NewUniform(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		System: sys,
		Mode:   Benign,
		Rand:   rand.New(rand.NewSource(3)),
		Clock:  ts.NewClock(1),
	}
}

// TestAdaptiveDelayConverges: with uniform 1-2ms virtual latency and a
// wildly wrong 80ms bootstrap, the estimator must pull the hedge delay
// down to the SRTT + 4·RTTVAR neighborhood of the real distribution.
func TestAdaptiveDelayConverges(t *testing.T) {
	stats, _ := adaptiveRun(t, func(net *transport.MemNetwork) Options {
		net.SetLatency(time.Millisecond, 2*time.Millisecond)
		o := baseOptions(t)
		o.Spares = 2
		o.HedgeDelay = 80 * time.Millisecond
		o.AdaptiveHedge = true
		o.EagerRead = true
		return o
	}, 100)
	if stats.LatencySamples < 100 {
		t.Fatalf("estimator saw only %d samples", stats.LatencySamples)
	}
	if stats.HedgeDelay >= 10*time.Millisecond || stats.HedgeDelay <= time.Millisecond {
		t.Fatalf("adaptive delay %v did not converge (SRTT %v, RTTVAR %v); want ~2-4ms",
			stats.HedgeDelay, stats.SRTT, stats.RTTVar)
	}
	if stats.SRTT < time.Millisecond || stats.SRTT > 2*time.Millisecond {
		t.Fatalf("SRTT %v outside the injected 1-2ms latency range", stats.SRTT)
	}
}

// TestAdaptiveHedgeRoutesAroundStraggler is the payoff measurement, made
// deterministic by virtual time: with one 40ms straggler in a 1-2ms
// cluster, adaptive hedging must cut the total virtual time of the
// workload by at least 2x against the unhedged client, because hedged
// operations complete at (converged delay + fast latency) instead of
// waiting 40ms whenever the straggler is sampled.
func TestAdaptiveHedgeRoutesAroundStraggler(t *testing.T) {
	const straggler = 40 * time.Millisecond
	configure := func(net *transport.MemNetwork) {
		net.SetLatency(time.Millisecond, 2*time.Millisecond)
		net.SetServerLatency(0, straggler, straggler)
	}
	baseline, baseElapsed := adaptiveRun(t, func(net *transport.MemNetwork) Options {
		configure(net)
		return baseOptions(t)
	}, 150)
	hedged, hedgedElapsed := adaptiveRun(t, func(net *transport.MemNetwork) Options {
		configure(net)
		o := baseOptions(t)
		o.Spares = 2
		o.HedgeDelay = 5 * time.Millisecond
		o.AdaptiveHedge = true
		o.EagerRead = true
		return o
	}, 150)
	if baseline.SparesPromoted != 0 {
		t.Fatalf("unhedged baseline promoted %d spares", baseline.SparesPromoted)
	}
	if hedged.SparesPromoted == 0 {
		t.Fatal("adaptive client never hedged despite the straggler")
	}
	if hedgedElapsed*2 > baseElapsed {
		t.Fatalf("adaptive hedging saved too little: %v hedged vs %v baseline (want >=2x)",
			hedgedElapsed, baseElapsed)
	}
	t.Logf("virtual workload time: baseline %v, adaptive %v (%.1fx), final delay %v",
		baseElapsed, hedgedElapsed, float64(baseElapsed)/float64(hedgedElapsed), hedged.HedgeDelay)
}

// TestAdaptiveRunDeterministic: the configuration PR 3 had to exclude from
// the determinism contract — hedge timers live — now replays exactly:
// same seed, same stats, same virtual duration.
func TestAdaptiveRunDeterministic(t *testing.T) {
	run := func() (AccessStats, time.Duration) {
		return adaptiveRun(t, func(net *transport.MemNetwork) Options {
			net.SetLatency(time.Millisecond, 2*time.Millisecond)
			net.SetServerLatency(0, 40*time.Millisecond, 40*time.Millisecond)
			o := baseOptions(t)
			o.Spares = 2
			o.HedgeDelay = 5 * time.Millisecond
			o.AdaptiveHedge = true
			o.EagerRead = true
			return o
		}, 80)
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 {
		t.Fatalf("same seed, divergent stats:\n  a: %+v\n  b: %+v", s1, s2)
	}
	if e1 != e2 {
		t.Fatalf("same seed, divergent virtual durations: %v vs %v", e1, e2)
	}
	if s1.SparesPromoted == 0 {
		t.Fatal("determinism case never hedged; the test is vacuous")
	}
}

// TestAdaptiveDelayIdentityBlind pins the ε-preservation mechanism: the
// hedge delay is a function of the pooled latency multiset only —
// reattributing the same latencies to different servers cannot change it.
func TestAdaptiveDelayIdentityBlind(t *testing.T) {
	latencies := []time.Duration{
		900 * time.Microsecond, 1200 * time.Microsecond, 2 * time.Millisecond,
		800 * time.Microsecond, 5 * time.Millisecond, 1100 * time.Microsecond,
		950 * time.Microsecond, 3 * time.Millisecond, 1500 * time.Microsecond,
		1 * time.Millisecond,
	}
	var a, b latencyEstimator
	for i, d := range latencies {
		a.observe(quorum.ServerID(i%3), d)     // spread over servers 0-2
		b.observe(quorum.ServerID(9-(i%4)), d) // entirely different ids
	}
	if da, db := a.delay(time.Second), b.delay(time.Second); da != db {
		t.Fatalf("delay depends on server attribution: %v vs %v", da, db)
	}
}

// TestServerLatenciesObservability: the per-server EWMAs single out the
// straggler without influencing the delay (previous test).
func TestServerLatenciesObservability(t *testing.T) {
	clk := vtime.NewSimClock()
	var per map[quorum.ServerID]time.Duration
	clk.Run(func() {
		net := newVirtualNet(10, 7, clk)
		net.SetLatency(time.Millisecond, 2*time.Millisecond)
		net.SetServerLatency(0, 30*time.Millisecond, 30*time.Millisecond)
		o := baseOptions(t)
		o.Transport = net
		o.Time = clk
		o.Spares = 1
		o.HedgeDelay = 50 * time.Millisecond // effectively no hedging: observe everyone
		o.AdaptiveHedge = true
		c, err := NewClient(o)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := context.Background()
		for i := 0; i < 80; i++ {
			key := fmt.Sprintf("k%d", i)
			if _, err := c.Write(ctx, key, []byte("v")); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		c.WaitDrained()
		per = c.ServerLatencies()
	})
	if t.Failed() {
		return
	}
	slow, ok := per[0]
	if !ok {
		t.Fatalf("straggler never observed: %v", per)
	}
	if slow < 20*time.Millisecond {
		t.Fatalf("straggler EWMA %v, want ~30ms", slow)
	}
	for id, d := range per {
		if id == 0 {
			continue
		}
		if d > 5*time.Millisecond {
			t.Fatalf("server %d EWMA %v, want ~1-2ms", id, d)
		}
	}
}

// TestAdaptiveHedgeValidation: the option combination rules.
func TestAdaptiveHedgeValidation(t *testing.T) {
	base := func() Options {
		o := baseOptions(t)
		o.Transport = transport.NewMemNetwork(1)
		return o
	}
	o := base()
	o.AdaptiveHedge = true
	if _, err := NewClient(o); err == nil {
		t.Fatal("AdaptiveHedge without Spares accepted")
	}
	o = base()
	o.AdaptiveHedge = true
	o.Spares = 1
	if _, err := NewClient(o); err == nil {
		t.Fatal("AdaptiveHedge without a HedgeDelay bootstrap accepted")
	}
	o = base()
	o.AdaptiveHedge = true
	o.Spares = 1
	o.HedgeDelay = time.Millisecond
	if _, err := NewClient(o); err != nil {
		t.Fatalf("valid adaptive config rejected: %v", err)
	}
}
