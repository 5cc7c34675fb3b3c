package load

import (
	"encoding/json"
	"os"
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
// change to the run does. Together they cover both planes, pair and
// fraction mode, crashes, churn with rejoin gossip under the timed verdict
// (on tcp-virtual too, where a churn wave and a crash reset connections), a
// hedged latency phase, and a population of many clients with few
// operations each. The pins are the "digests" rows of the behaviour ledger
// (testdata/golden.json at the module root); each row logs what it
// recorded as a "golden row" line, which `make golden` collects into the
// ledger. A change to how the simulation is scheduled (which goroutine runs
// what) must leave all of them equal; a change that moves one changed
// behaviour, and its diff of the ledger names every value that moved. The
// rows run in parallel, so worlds under different SimClocks borrow
// operation scratch from the register's one pool at once: what a row
// records must not depend on which scratch it was lent.
func TestGoldenDigests(t *testing.T) {
	// A missing ledger fails every row but still lets each log what it
	// recorded, which is how `make golden` writes the first one.
	var ledger struct {
		Digests []Result `json:"digests"`
	}
	if raw, err := os.ReadFile("../../testdata/golden.json"); err != nil {
		t.Error(err)
	} else if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Error(err)
	}
	pinned := map[string]Result{}
	for _, r := range ledger.Digests {
		pinned[r.Name] = r
	}
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
	cfgs := []Config{
		{Name: "golden/mem-crash", System: sys, Clients: 120, Arrivals: 8, CrashN: 6,
			Seed: 11, Bound: sys.EpsilonBound(), Tuning: hedged, Topology: latency, LatencyOps: 200},
		{Name: "golden/mem-fraction", System: sys, Clients: 100, Arrivals: 16, ReadFraction: 0.7,
			Seed: 12, Bound: sys.EpsilonBound()},
		{Name: "golden/mem-churn", System: sys, Clients: 100, Arrivals: 10,
			Waves: 4, WaveSize: 10, GossipWaveRounds: 1,
			Seed: 13, Bound: sys.EpsilonBound()},
		{Name: "golden/tcp", System: tcpSys, Clients: 8, Arrivals: 30,
			Seed: 14, Bound: tcpSys.EpsilonBound(), Tuning: hedged, Topology: tcpLatency, LatencyOps: 100},
		{Name: "golden/tcp-churn", System: tcpSys, Clients: 8, Arrivals: 30,
			CrashN: 4, Waves: 3, WaveSize: 4, GossipWaveRounds: 1,
			Seed: 15, Bound: tcpSys.EpsilonBound(), Tuning: hedged, Topology: tcpLatency, LatencyOps: 100},
		{Name: "golden/mem-population", System: popSys, Clients: 600, Arrivals: 3, CrashN: 3,
			Seed: 16, Bound: popSys.EpsilonBound(), Tuning: hedged, Topology: latency, LatencyOps: 100},
	}
	if len(pinned) != len(cfgs) {
		t.Errorf("the ledger holds %d digest rows, the test has %d: run make golden", len(pinned), len(cfgs))
	}
	for _, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			row, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("golden row: %s", row)
			g, ok := pinned[cfg.Name]
			if !ok {
				t.Fatalf("no ledger row for %s: run make golden", cfg.Name)
			}
			if res.Digest != g.Digest || res.SimSeconds != g.SimSeconds || res.P50Ms != g.P50Ms {
				t.Errorf("digest %s, sim_seconds %v, p50 %v ms; pinned %s, %v, %v",
					res.Digest, res.SimSeconds, res.P50Ms, g.Digest, g.SimSeconds, g.P50Ms)
			}
			if res.Reads != g.Reads || res.EligibleReads != g.EligibleReads || res.EligibleBad != g.EligibleBad || res.Pass != g.Pass {
				t.Errorf("reads %d, eligible %d, eligible bad %d, pass %v; pinned %d, %d, %d, %v",
					res.Reads, res.EligibleReads, res.EligibleBad, res.Pass, g.Reads, g.EligibleReads, g.EligibleBad, g.Pass)
			}
		})
	}
}
