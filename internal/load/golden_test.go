package load

import (
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/sim"
)

// TestGoldenDigests pins what six small scale points record: the digest of
// every client's operation stream, the virtual time the run covered, the
// latency phase's median, and the checker's reads, eligible reads, eligible
// bad reads and verdict, so a change to the judge shows here the way a
// change to the run does. Together they cover both planes, pair and fraction
// mode, crashes, churn with rejoin gossip under the timed verdict (on
// tcp-virtual too, where a churn wave and a crash reset connections), a
// hedged latency phase, and a population of many clients with few
// operations each. A change to how the simulation is scheduled (which
// goroutine runs what) must leave all of them equal; a change that moves one
// changed behaviour, and must say so and re-pin. The rows run in parallel,
// so worlds under different SimClocks borrow operation scratch from the
// register's one pool at once: what a row records must not depend on which
// scratch it was lent.
func TestGoldenDigests(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(150, 2)
	if err != nil {
		t.Fatal(err)
	}
	popSys, err := core.NewEpsilonIntersectingEll(300, 2)
	if err != nil {
		t.Fatal(err)
	}
	tcpSys, err := core.NewEpsilonIntersectingEll(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	hedged := config.Tuning{Spares: 2, HedgeDelay: 2 * time.Millisecond, AdaptiveHedge: true, EagerRead: true}
	latency := config.Topology{LatencyMin: 200 * time.Microsecond, LatencyMax: 800 * time.Microsecond}
	tcpLatency := latency
	tcpLatency.Transport = sim.TransportTCPVirtual
	for _, g := range []struct {
		cfg    Config
		digest string
		simSec float64
		p50Ms  float64
		// reads, eligible and bad are CheckResult's Reads, EligibleReads
		// and EligibleBad.
		reads, eligible, bad int
		pass                 bool
	}{
		{cfg: Config{Name: "golden/mem-crash", System: sys, Clients: 120, Arrivals: 8, CrashN: 6,
			Seed: 11, Bound: sys.EpsilonBound(), Tuning: hedged, Topology: latency, LatencyOps: 200},
			digest: "21fa02d01f741416", simSec: 0.164184843, p50Ms: 0.778948,
			reads: 840, eligible: 622, bad: 13, pass: true},
		{cfg: Config{Name: "golden/mem-fraction", System: sys, Clients: 100, Arrivals: 16, ReadFraction: 0.7,
			Seed: 12, Bound: sys.EpsilonBound()},
			digest: "65596ff2be2d2944", simSec: 0.01812, p50Ms: 0,
			reads: 1042, eligible: 1042, bad: 13, pass: true},
		{cfg: Config{Name: "golden/mem-churn", System: sys, Clients: 100, Arrivals: 10,
			Waves: 4, WaveSize: 10, GossipWaveRounds: 1,
			Seed: 13, Bound: sys.EpsilonBound()},
			digest: "267422b92a71eaf1", simSec: 0.011907, p50Ms: 0,
			reads: 900, eligible: 900, bad: 9, pass: true},
		{cfg: Config{Name: "golden/tcp", System: tcpSys, Clients: 8, Arrivals: 30,
			Seed: 14, Bound: tcpSys.EpsilonBound(), Tuning: hedged, Topology: tcpLatency, LatencyOps: 100},
			digest: "576e2ac1461d7895", simSec: 0.172965512, p50Ms: 1.437994,
			reads: 232, eligible: 232, bad: 2, pass: true},
		{cfg: Config{Name: "golden/tcp-churn", System: tcpSys, Clients: 8, Arrivals: 30,
			CrashN: 4, Waves: 3, WaveSize: 4, GossipWaveRounds: 1,
			Seed: 15, Bound: tcpSys.EpsilonBound(), Tuning: hedged, Topology: tcpLatency, LatencyOps: 100},
			digest: "ff9f567569920ce5", simSec: 0.174999535, p50Ms: 1.439414,
			reads: 232, eligible: 181, bad: 0, pass: true},
		{cfg: Config{Name: "golden/mem-population", System: popSys, Clients: 600, Arrivals: 3, CrashN: 3,
			Seed: 16, Bound: popSys.EpsilonBound(), Tuning: hedged, Topology: latency, LatencyOps: 100},
			digest: "228424f6bba527fd", simSec: 0.082332046, p50Ms: 0.784744,
			reads: 1200, eligible: 1013, bad: 10, pass: true},
	} {
		t.Run(g.cfg.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest != g.digest || res.SimSeconds != g.simSec || res.P50Ms != g.p50Ms {
				t.Errorf("digest %s, sim_seconds %v, p50 %v ms; pinned %s, %v, %v",
					res.Digest, res.SimSeconds, res.P50Ms, g.digest, g.simSec, g.p50Ms)
			}
			if res.Reads != g.reads || res.EligibleReads != g.eligible || res.EligibleBad != g.bad || res.Pass != g.pass {
				t.Errorf("reads %d, eligible %d, eligible bad %d, pass %v; pinned %d, %d, %d, %v",
					res.Reads, res.EligibleReads, res.EligibleBad, res.Pass, g.reads, g.eligible, g.bad, g.pass)
			}
		})
	}
}
