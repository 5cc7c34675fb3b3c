package chaos

import (
	"testing"

	"pqs/internal/sim"
)

// TestGoldenHistories pins the history fingerprints and the virtual time
// of fifteen seed-1 runs: three adversary families and a slow lorris on the
// memory plane and, over tcp-virtual, the calm run and one whose clients
// hedge (spares, a hedge delay, eager reads) while servers flap; and, on
// one plane or both, the runs whose crashes, churn or link faults go
// through sim.World or the link-fault interface: churn with gossip, timed
// churn, loss with duplication and reordering, flapping partitions, a
// crash wave and asymmetric bandwidth. How the
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
		{"benign/churn", sim.TransportMem, "2c2458b6a4e04aca98be8bebcd51c9b6918166a1354c92315abf7fdd99ad21f2", 0},
		{"benign/churn", sim.TransportTCPVirtual, "2c2458b6a4e04aca98be8bebcd51c9b6918166a1354c92315abf7fdd99ad21f2", 0},
		{"benign/churn-timed", sim.TransportMem, "9da1b46f1f79b93b766828c748a6a660a4dab330b515f3bee8d0e3b85ec54903", 0},
		{"benign/lossy-dup-reorder", sim.TransportMem, "1bda3a17b8b217a4851989a2f057c5470e32265f703c3a5d280b84a50f8274d8", 0.057898479},
		{"benign/lossy-dup-reorder", sim.TransportTCPVirtual, "eb1404e130e15305b772520ca4742e800f951a643f3b4be2dc606cc66a5e20c2", 0.105206527},
		{"benign/partition-flap", sim.TransportMem, "204fbde8a031ef989bbcdccb0ab343d6ce41863a017c19d0f1aa5e5a577efd9d", 0},
		{"benign/partition-flap", sim.TransportTCPVirtual, "204fbde8a031ef989bbcdccb0ab343d6ce41863a017c19d0f1aa5e5a577efd9d", 0},
		{"benign/crash-wave", sim.TransportTCPVirtual, "6d2267f9c0ebce8cac76cb7a2c6301d89a63a53733c037ef57c8a0c4f5dac466", 0},
		{"wan/asym-bandwidth", sim.TransportTCPVirtual, "e3f28ea3ce792bc3ddb88ffe050d7da27b635cf4c0ce8c88f7f22213e4644993", 45.789076527},
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
