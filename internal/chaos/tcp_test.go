package chaos

// Chaos over the REAL data plane: the same scenario matrix, replayed
// through the TCP stack (framing, binary codec, group-commit frame writer,
// read-loop dispatch) over virtual-time byte streams. Two properties are
// gated: every scenario still passes its theorem bound when the faults act
// on framed bytes instead of messages, and every run replays byte-for-byte
// from its seed — the CI chaos-tcp job runs exactly these.

import (
	"testing"

	"pqs/internal/sim"
)

// tcpConfig rebuilds a scenario's config for the tcp-virtual data plane.
func tcpConfig(t *testing.T, sc Scenario, scale int, seed int64) Config {
	t.Helper()
	cfg, err := sc.Build(scale, seed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg.Transport = sim.TransportTCPVirtual
	return cfg
}

// TestChaosScenariosTCPVirtual runs the full shipped matrix over the
// virtual TCP data plane: every scenario must pass its theorem bound with
// the fault schedule reimplemented at the byte-stream layer.
func TestChaosScenariosTCPVirtual(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(tcpConfig(t, sc, *chaosScale, *chaosSeed))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep.Transport != sim.TransportTCPVirtual {
				t.Fatalf("report transport %q", rep.Transport)
			}
			c := rep.Check
			t.Logf("%s[tcp]: reads=%d correct=%d stale=%d fooled=%d eligible=%d/%d ε=%.5f bound=%.3g p=%.3g sim=%.2fs",
				sc.Name, c.Reads, c.Correct, c.Stale, c.Fooled,
				c.EligibleBad, c.EligibleReads, c.EligibleEpsilon, c.Bound, c.PValue, rep.SimSeconds)
			for _, v := range c.Violations {
				t.Errorf("violation: %s", v)
			}
			if !c.Pass {
				t.Errorf("scenario %s failed its bound over tcp-virtual: eligible ε=%.5f over %d reads vs bound %.3g (p=%.3g); replay with -chaos.seed=%d",
					sc.Name, c.EligibleEpsilon, c.EligibleReads, c.Bound, c.PValue, rep.Seed)
			}
		})
	}
}

// TestChaosDeterminismTCPVirtual is the replay regression for the real
// wire path: two runs of every scenario over tcp-virtual from one seed
// must produce byte-identical histories — chunk latency draws, connection
// resets, hedge timers and all.
func TestChaosDeterminismTCPVirtual(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			a, err := Run(tcpConfig(t, sc, 1, *chaosSeed))
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(tcpConfig(t, sc, 1, *chaosSeed))
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if d := a.History.Diff(b.History); d != "" {
				t.Fatalf("seed %d did not replay over tcp-virtual:\n%s", *chaosSeed, d)
			}
			if a.Check.Pass != b.Check.Pass || a.Check.Epsilon != b.Check.Epsilon {
				t.Fatalf("check verdicts diverge for identical histories")
			}
			if a.SimSeconds != b.SimSeconds {
				t.Fatalf("virtual time diverges for identical histories: %v vs %v s", a.SimSeconds, b.SimSeconds)
			}
		})
	}
}

// TestChaosSettlesAfterActions replays the scenario whose schedule resets
// connections between operations (Leave/Join waves) ten times over. A
// reset's consequences — connections failing on notifying workers, the pool
// pruning them — run on other workers at the same virtual instant, so
// unless the run settles after applying an event, whether the next write
// leases a dead connection (one member fails, Full=false) or redials is the
// Go scheduler's choice: about one double-run in seven diverged.
func TestChaosSettlesAfterActions(t *testing.T) {
	churn, ok := find("benign/churn-timed")
	if !ok {
		t.Fatal("scenario benign/churn-timed is gone")
	}
	for i := 0; i < 10; i++ {
		a, err := Run(tcpConfig(t, churn, 1, *chaosSeed))
		if err != nil {
			t.Fatalf("run %d/a: %v", i, err)
		}
		b, err := Run(tcpConfig(t, churn, 1, *chaosSeed))
		if err != nil {
			t.Fatalf("run %d/b: %v", i, err)
		}
		if d := a.History.Diff(b.History); d != "" {
			t.Fatalf("double-run %d: seed %d did not replay:\n%s", i, *chaosSeed, d)
		}
		if a.SimSeconds != b.SimSeconds {
			t.Fatalf("double-run %d: virtual time diverges: %v vs %v s", i, a.SimSeconds, b.SimSeconds)
		}
	}
}

// TestNegativeScenarioFailsTCPVirtual proves the checker keeps its teeth
// over the real wire path too.
func TestNegativeScenarioFailsTCPVirtual(t *testing.T) {
	cfg, err := NegativeConfig(1, *chaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = sim.TransportTCPVirtual
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Check.Pass {
		t.Fatalf("negative scenario passed over tcp-virtual (ε=%.5f vs bound %.3g); the checker lost its teeth",
			rep.Check.EligibleEpsilon, rep.Check.Bound)
	}
}
