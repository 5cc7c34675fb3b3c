package load

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/sim"
)

// smokeConfig is a CI-sized scale point: same machinery as the scale/
// matrix, two orders of magnitude smaller.
func smokeConfig(t *testing.T, seed int64) Config {
	t.Helper()
	sys, err := core.NewEpsilonIntersectingEll(150, 2)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Name: "smoke/steady", System: sys,
		Clients: 400, Arrivals: 10,
		Seed: seed, Bound: sys.EpsilonBound(),
		Tuning:     config.Tuning{Spares: 2, HedgeDelay: 2 * time.Millisecond, EagerRead: true},
		Topology:   config.Topology{LatencyMin: 200 * time.Microsecond, LatencyMax: 800 * time.Microsecond},
		LatencyOps: 600,
	}
}

func TestLoadSteadySmoke(t *testing.T) {
	res, err := Run(smokeConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	if want := 400 * (10 + 9); res.Ops-res.LatencyOps != want {
		t.Errorf("counting ops = %d, want %d (10 writes + 9 lagged reads per client)", res.Ops-res.LatencyOps, want)
	}
	if res.LatencyOps != 600 || res.P50Ms <= 0 || res.P999Ms < res.P50Ms {
		t.Errorf("latency phase malformed: ops=%d p50=%.3f p99=%.3f p999=%.3f",
			res.LatencyOps, res.P50Ms, res.P99Ms, res.P999Ms)
	}
	if !res.Pass {
		t.Errorf("steady smoke failed its bound: ε=%.5f bound=%.4g p=%.3g", res.Epsilon, res.Bound, res.PValue)
	}
	t.Logf("steady: ops=%d ε=%.5f (bound %.4g, p=%.3g) p50=%.2fms p99=%.2fms p999=%.2fms digest=%s sim=%.3fs",
		res.Ops, res.Epsilon, res.Bound, res.PValue, res.P50Ms, res.P99Ms, res.P999Ms, res.Digest, res.SimSeconds)
}

// TestLoadDeterminism is the replay contract: two runs of one Config give
// equal Results, digest included; a different seed gives a different
// digest (the harness is not ignoring it).
func TestLoadDeterminism(t *testing.T) {
	a, err := Run(smokeConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smokeConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digests diverge: %s vs %s", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a, b) {
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		t.Fatalf("results diverge:\n%s\n%s", aj, bj)
	}
	c, err := Run(smokeConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatal("seeds 7 and 8 produced identical digests; the harness is ignoring its seed")
	}
}

func churnSmokeConfig(t *testing.T, seed int64) Config {
	cfg := smokeConfig(t, seed)
	cfg.Name = "smoke/churn"
	cfg.Waves = 6
	cfg.WaveSize = 15
	cfg.GossipWaveRounds = 1
	cfg.LatencyOps = 0
	return cfg
}

// TestLoadChurnSmoke runs the churn machinery end to end: depth buckets
// beyond D=0 are populated, the decayed verdict passes, and the
// membership view the churn driver re-advertised through the data plane
// is read back by a fresh client.
func TestLoadChurnSmoke(t *testing.T) {
	res, err := Run(churnSmokeConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timed == nil {
		t.Fatal("a churning run produced no timed verdict")
	}
	deep := 0
	for _, g := range res.Timed.Groups {
		t.Logf("D=%d: reads=%d bad=%d bound=%.4g", g.Departures, g.Reads, g.Bad, g.Bound)
		if g.Departures > 0 {
			deep += g.Reads
		}
	}
	if deep == 0 {
		t.Error("no reads landed in D>0 buckets; the view stamping or wave placement is broken")
	}
	if want := 6 * 15; res.Departures != want {
		t.Errorf("departures=%d, want %d", res.Departures, want)
	}
	if res.AdvertisedView != uint64(res.Departures) {
		t.Errorf("fresh reader observed advertised view %d, want %d: the diffusion re-advertisement is broken",
			res.AdvertisedView, res.Departures)
	}
	if !res.Pass {
		t.Errorf("churn smoke failed its decayed bound: ε=%.5f p=%.3g", res.Epsilon, res.Timed.PValue)
	}
}

// TestLoadNegativeViewBlind is the acceptance negative test: the
// view-blind storm must FAIL the timed gate — proof that the depth
// bucketing (and not just the churn itself) is load-bearing.
func TestLoadNegativeViewBlind(t *testing.T) {
	cfg, err := NegativeConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timed == nil {
		t.Fatal("negative config produced no timed verdict")
	}
	for _, g := range res.Timed.Groups {
		if g.Departures != 0 {
			t.Errorf("view-blind run produced depth bucket D=%d", g.Departures)
		}
	}
	if res.Pass {
		t.Fatalf("negative view-blind config PASSED (ε=%.5f vs bound %.4g, p=%.3g): the scale gate has no teeth",
			res.Epsilon, res.Bound, res.Timed.PValue)
	}
	t.Logf("negative: ε=%.5f vs bound %.4g, p=%.3g — failed as required", res.Epsilon, res.Bound, res.Timed.PValue)

	// The same storm WITH views must pass: the failure above comes from
	// blinding the view stamps, not from the storm being unsurvivable.
	cfg2, err := NegativeConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg2.ViewBlind = false
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Pass {
		t.Errorf("the negative storm fails even WITH views (p=%.3g): it does not isolate view-blindness", res2.Timed.PValue)
	}
}

// TestLoadFailsWithNoEligibleRead: a run whose every write is partial (W=1
// returns on the first ack, so no read meets the theorems' premise), and a
// run too short to read at all, judged nothing and must FAIL.
func TestLoadFailsWithNoEligibleRead(t *testing.T) {
	partial := smokeConfig(t, 1)
	partial.LatencyOps = 0
	partial.Tuning = config.Tuning{W: 1}
	unread := smokeConfig(t, 1)
	unread.LatencyOps = 0
	unread.Arrivals = readLag
	for _, cfg := range []Config{partial, unread} {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.EligibleReads != 0 || res.Pass {
			t.Errorf("W=%d arrivals=%d: %d reads, %d eligible, pass %v; want 0 eligible and FAIL",
				cfg.W, cfg.Arrivals, res.Reads, res.EligibleReads, res.Pass)
		}
	}
}

// TestLoadReadHeavy exercises fraction mode.
func TestLoadReadHeavy(t *testing.T) {
	cfg := smokeConfig(t, 5)
	cfg.Name = "smoke/read-heavy"
	cfg.ReadFraction = 0.8
	cfg.Arrivals = 20
	cfg.LatencyOps = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads <= res.Writes {
		t.Errorf("read-heavy run did more writes (%d) than reads (%d)", res.Writes, res.Reads)
	}
	if !res.Pass {
		t.Errorf("read-heavy smoke failed: ε=%.5f p=%.3g", res.Epsilon, res.PValue)
	}
}

// TestLoadTCPVirtual pins the scale harness to the real wire path at
// reduced scale, including its determinism.
func TestLoadTCPVirtual(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	build := func() Config {
		return Config{
			Name: "smoke/tcp", System: sys,
			Clients: 1, Arrivals: 120,
			Seed: 2, Bound: sys.EpsilonBound(),
			Topology: config.Topology{
				Transport:  sim.TransportTCPVirtual,
				LatencyMin: 200 * time.Microsecond,
				LatencyMax: 800 * time.Microsecond,
			},
			LatencyOps: 200,
		}
	}
	a, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Pass {
		t.Errorf("tcp smoke failed: ε=%.5f p=%.3g", a.Epsilon, a.PValue)
	}
	if a.Transport != sim.TransportTCPVirtual {
		t.Errorf("transport = %q", a.Transport)
	}
	if a.LatencyOps != 200 || a.P50Ms <= 0 {
		t.Errorf("tcp latency phase is not charging wire delay: ops=%d p50=%.4fms", a.LatencyOps, a.P50Ms)
	}
	b, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tcp runs diverge: %s vs %s", a.Digest, b.Digest)
	}
}

// TestScaleScenarioLibrary pins the matrix shape the acceptance criteria
// name: at least one n>=1000 point with >=10k clients, churn on and off,
// a >=2000-replica point, a tcp point, and >=1M ops across the matrix
// (counting arrivals conservatively, before lag trimming).
func TestScaleScenarioLibrary(t *testing.T) {
	seen := map[string]bool{}
	totalOps, maxN, maxClients := 0, 0, 0
	churn, tcp := false, false
	for _, sc := range Scenarios() {
		if sc.Name == "" || sc.Doc == "" {
			t.Errorf("scenario %+v missing name or doc", sc)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		cfg, err := sc.Build(1)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		ops := cfg.Clients * cfg.Arrivals
		if cfg.ReadFraction == 0 {
			// Each client writes at every arrival and reads at all but
			// the first readLag.
			ops = cfg.Clients * (cfg.Arrivals + cfg.Arrivals - readLag)
		}
		totalOps += ops + cfg.LatencyOps
		if n := cfg.System.N(); n > maxN {
			maxN = n
		}
		if cfg.Clients > maxClients {
			maxClients = cfg.Clients
		}
		if cfg.Waves > 0 {
			churn = true
		}
		if cfg.Topology.Transport == sim.TransportTCPVirtual {
			tcp = true
		}
	}
	if maxN < 2000 {
		t.Errorf("largest universe is %d, want >= 2000", maxN)
	}
	if maxClients < 10000 {
		t.Errorf("largest client population is %d, want >= 10000", maxClients)
	}
	if totalOps < 1_000_000 {
		t.Errorf("matrix totals %d ops, want >= 1M", totalOps)
	}
	if !churn || !tcp {
		t.Errorf("matrix must cover churn (%v) and tcp (%v)", churn, tcp)
	}
}

// TestRunRejectsOutOfRangeChurn: churn and crash inputs the run cannot
// honour are an error from Run, never a panic on a SimClock worker (which
// no caller could recover); the inputs at the edge of the range run. So are
// a ReadFraction outside [0, 1] or NaN (which would quietly pick pair mode,
// or read always) and a negative LatencyOps (which would quietly skip the
// latency phase).
func TestRunRejectsOutOfRangeChurn(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	const total = 64
	for _, row := range []struct {
		name                    string
		crashN, waves, waveSize int
		readFraction            float64
		latencyOps              int
		gossip, ok              bool
	}{
		{name: "negative CrashN", crashN: -1},
		{name: "CrashN above the replica count", crashN: total + 1},
		{name: "every server crashed, with churn", crashN: total, waves: 1, waveSize: 1},
		{name: "negative Waves", waves: -1},
		{name: "negative WaveSize", waves: 1, waveSize: -1},
		{name: "a wave larger than the rotation, with rejoin gossip", waves: 1, waveSize: total + 1, gossip: true},
		{name: "a wave larger than the servers left uncrashed", crashN: 4, waves: 1, waveSize: total - 3},
		{name: "every server crashed", crashN: total, ok: true},
		{name: "a wave the size of the rotation, with rejoin gossip", crashN: 4, waves: 1, waveSize: total - 4, gossip: true, ok: true},
		{name: "negative ReadFraction", readFraction: -0.1},
		{name: "ReadFraction above 1", readFraction: 1.5},
		{name: "NaN ReadFraction", readFraction: math.NaN()},
		{name: "ReadFraction 0", readFraction: 0, ok: true},
		{name: "ReadFraction 1", readFraction: 1, ok: true},
		{name: "negative LatencyOps", latencyOps: -1},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{Name: "edge", System: sys, Clients: 2, Arrivals: 4, Seed: 1, Bound: sys.EpsilonBound(),
				CrashN: row.crashN, Waves: row.waves, WaveSize: row.waveSize,
				ReadFraction: row.readFraction, LatencyOps: row.latencyOps}
			if row.gossip {
				cfg.GossipWaveRounds = 1
			}
			_, err := Run(cfg)
			if row.ok && err != nil {
				t.Fatalf("Run refused an input in range: %v", err)
			}
			if !row.ok && err == nil {
				t.Fatal("Run accepted an input out of range")
			}
		})
	}
}
