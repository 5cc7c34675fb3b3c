package chaos

import (
	"encoding/json"
	"os"
	"testing"

	"pqs/internal/sim"
)

// TestGoldenHistories replays every chaos row of the behaviour ledger
// (testdata/golden.json at the module root, which `make golden` rewrites):
// each scenario and the negative configuration at scale 1, seed 1, on the
// memory plane and over tcp-virtual, against its history fingerprint, its
// virtual time and its verdict. How the simulation is scheduled — which
// goroutine runs a call, a timer callback or a client — must not move any
// of them; a change that moves one changed behaviour, and its diff of the
// ledger names every value that moved.
func TestGoldenHistories(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Chaos []struct {
			Name          string  `json:"name"`
			Transport     string  `json:"transport"`
			HistorySHA256 string  `json:"history_sha256"`
			SimSeconds    float64 `json:"sim_seconds"`
			Pass          bool    `json:"pass"`
		} `json:"chaos"`
	}
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatal(err)
	}
	negative, err := NegativeConfig(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (len(Scenarios()) + 1); len(ledger.Chaos) != want {
		t.Fatalf("the ledger holds %d chaos rows, the matrix has %d: run make golden", len(ledger.Chaos), want)
	}
	for _, g := range ledger.Chaos {
		t.Run(g.Transport+"/"+g.Name, func(t *testing.T) {
			t.Parallel()
			build := NegativeConfig
			if g.Name != negative.Name {
				sc, ok := find(g.Name)
				if !ok {
					t.Fatalf("scenario %s is gone", g.Name)
				}
				build = sc.Build
			}
			cfg, err := build(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if g.Transport != sim.TransportMem && g.Transport != sim.TransportTCPVirtual {
				t.Fatalf("unknown transport %q", g.Transport)
			}
			cfg.Transport = g.Transport
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.HistorySHA256 != g.HistorySHA256 || rep.SimSeconds != g.SimSeconds || rep.Check.Pass != g.Pass {
				t.Errorf("history_sha256 %s, sim_seconds %v, pass %v; pinned %s, %v, %v",
					rep.HistorySHA256, rep.SimSeconds, rep.Check.Pass, g.HistorySHA256, g.SimSeconds, g.Pass)
			}
		})
	}
}
