package chaos

import (
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/register"
	"pqs/internal/sim"
)

// TestChaosDeterminismHedged replays the access-path configurations the
// scenario matrix leaves out — hedge timers racing stragglers, spare
// promotion under loss, eager reads against forgers — twice each from one
// seed: the histories and the virtual time must be identical. Under the
// run's SimClock hedge timers join the replayable event order, so even runs
// whose spare promotion is timer-driven must replay.
func TestChaosDeterminismHedged(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(60, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := core.NewMasking(60, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	lat := config.Topology{LatencyMin: time.Millisecond, LatencyMax: 3 * time.Millisecond}
	tcpLat := lat
	tcpLat.Transport = sim.TransportTCPVirtual
	slow := func(n int, d time.Duration) Action { return SlowDown(d, d, ids(0, n)...) }
	adaptive := func(spares int, hedge time.Duration) config.Tuning {
		return config.Tuning{Spares: spares, HedgeDelay: hedge, AdaptiveHedge: true, EagerRead: true}
	}
	cases := []Config{
		{Name: "mem-lossy-spares", System: sys, Mode: register.Benign, Ops: 150, Seed: 13,
			Tuning:   config.Tuning{Spares: 3},
			Schedule: Schedule{At(0, Drop(0.08))}},
		{Name: "dissem-byz-eager", System: sys, Mode: register.Dissemination, Ops: 120, Seed: 15,
			Tuning:   config.Tuning{EagerRead: true},
			Schedule: Schedule{At(0, Collude("forged", ids(0, 4)...))}},
		{Name: "virtual-hedged", System: sys, Mode: register.Benign, Ops: 120, Seed: 16,
			Topology: lat,
			Tuning:   config.Tuning{Spares: 2, HedgeDelay: 5 * time.Millisecond, EagerRead: true},
			Schedule: Schedule{At(0, slow(3, 25*time.Millisecond))}},
		{Name: "virtual-adaptive-hedged-lossy", System: sys, Mode: register.Benign, Ops: 120, Seed: 17,
			Topology: lat, Tuning: adaptive(3, 5*time.Millisecond),
			Schedule: Schedule{At(0, slow(3, 25*time.Millisecond), Drop(0.05))}},
		{Name: "virtual-masking-byz-hedged", System: mask, Mode: register.Masking, Ops: 100, Seed: 18,
			Topology: lat, Tuning: adaptive(2, 4*time.Millisecond),
			Schedule: Schedule{At(0, slow(2, 20*time.Millisecond), Collude("forged", ids(2, mask.B())...))}},
		{Name: "tcp-virtual-lossy-hedged", System: sys, Mode: register.Benign, Ops: 100, Seed: 20,
			Topology: tcpLat, Tuning: adaptive(3, 8*time.Millisecond),
			Schedule: Schedule{At(0, slow(3, 25*time.Millisecond), Drop(0.01))}},
	}
	for _, cfg := range cases {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			a, err := Run(cfg)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if d := a.History.Diff(b.History); d != "" {
				t.Fatalf("same seed, divergent histories:\n%s", d)
			}
			if a.SimSeconds != b.SimSeconds {
				t.Fatalf("virtual time diverges for identical histories: %v vs %v s", a.SimSeconds, b.SimSeconds)
			}
		})
	}
}
