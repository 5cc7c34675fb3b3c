package chaos

import (
	"testing"

	"pqs/internal/sim"
)

// TestGoldenHistories pins the history fingerprints and the virtual time
// of six seed-1 runs: three adversary families and a slow lorris on the
// memory plane and, over tcp-virtual, the calm run and one whose clients
// hedge (spares, a hedge delay, eager reads) while servers flap. How the
// simulation is scheduled — which goroutine runs a call, a timer callback or
// a client — must not move any of them; a change that moves one changed
// behaviour, and must say so and re-pin.
func TestGoldenHistories(t *testing.T) {
	for _, g := range []struct {
		scenario, transport, sha string
		simSeconds               float64
	}{
		{"benign/calm", sim.TransportMem, "5b932695ca2b3d1385a634ec74dcd100ab516b2bb42b7d35848f0a369b70c997", 0},
		{"masking/colluders", sim.TransportMem, "2f99834224ea003311a3243e88a2e36147e8816aef85abd7af37854dd53701ea", 0},
		{"dissem/forgers", sim.TransportMem, "2f99834224ea003311a3243e88a2e36147e8816aef85abd7af37854dd53701ea", 0},
		{"benign/slow-lorris", sim.TransportMem, "b48f981a617425246e81951de9841465722b24a8a04433a49805606bedf27634", 0.04384},
		{"benign/calm", sim.TransportTCPVirtual, "5b932695ca2b3d1385a634ec74dcd100ab516b2bb42b7d35848f0a369b70c997", 0},
		{"benign/flapping-server", sim.TransportTCPVirtual, "4767c2a2a92aaf05f3ef32f960017ad8e99748541d736bd137d3f70fd75f6255", 0.260797538},
	} {
		t.Run(g.transport+"/"+g.scenario, func(t *testing.T) {
			sc, ok := find(g.scenario)
			if !ok {
				t.Fatalf("scenario %s is gone", g.scenario)
			}
			cfg, err := sc.Build(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Transport = g.transport
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.HistorySHA256 != g.sha {
				t.Errorf("history_sha256 %s, pinned %s", rep.HistorySHA256, g.sha)
			}
			if rep.SimSeconds != g.simSeconds {
				t.Errorf("sim_seconds %v, pinned %v", rep.SimSeconds, g.simSeconds)
			}
		})
	}
}
