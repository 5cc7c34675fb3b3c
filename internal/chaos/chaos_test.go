package chaos

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"pqs/internal/register"
	"pqs/internal/sim"
	"pqs/internal/ts"
	"pqs/internal/wire"
)

// chaosSeed replays the scenario matrix from a chosen seed:
//
//	go test ./internal/chaos -run TestChaos -chaos.seed=N -v
//
// A failing CI seed pasted here reproduces the identical history locally —
// that is the determinism contract under test below.
var chaosSeed = flag.Int64("chaos.seed", 1, "seed for the chaos scenario matrix")

// chaosScale multiplies per-scenario trial counts (CI runs 1).
var chaosScale = flag.Int("chaos.scale", 1, "trial-count multiplier for the chaos scenario matrix")

// find returns the named scenario.
func find(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// TestChaosScenarios runs the full shipped matrix: every scenario must pass
// its theorem bound at the checker's confidence, with zero hard violations.
func TestChaosScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := sc.Build(*chaosScale, *chaosSeed)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			c := rep.Check
			t.Logf("%s: reads=%d correct=%d stale=%d fooled=%d unavailable=%d eligible=%d/%d ε=%.5f (eligible ε=%.5f) bound=%.3g p=%.3g depth=%v",
				sc.Name, c.Reads, c.Correct, c.Stale, c.Fooled, c.Unavailable,
				c.EligibleBad, c.EligibleReads, c.Epsilon, c.EligibleEpsilon, c.Bound, c.PValue, c.StaleDepth)
			for _, v := range c.Violations {
				t.Errorf("violation: %s", v)
			}
			if !c.Pass {
				t.Errorf("scenario %s failed its bound: eligible ε=%.5f over %d reads vs bound %.3g (p=%.3g); replay with -chaos.seed=%d",
					sc.Name, c.EligibleEpsilon, c.EligibleReads, c.Bound, c.PValue, rep.Seed)
			}
		})
	}
}

// TestScenarioLibrarySize pins the acceptance floor: at least 8 named
// scenarios ship.
func TestScenarioLibrarySize(t *testing.T) {
	if n := len(Scenarios()); n < 8 {
		t.Fatalf("scenario library has %d entries, want >= 8", n)
	}
	seen := map[string]bool{}
	for _, sc := range Scenarios() {
		if sc.Name == "" || sc.Doc == "" {
			t.Errorf("scenario %+v missing name or doc", sc)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
	}
}

// TestChaosDeterminism is the determinism regression: two runs of every
// scenario from the same seed must produce byte-identical histories. On
// divergence it fails with the first divergent event.
func TestChaosDeterminism(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := sc.Build(1, *chaosSeed)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			a, err := Run(cfg)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			cfg2, err := sc.Build(1, *chaosSeed)
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			b, err := Run(cfg2)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if d := a.History.Diff(b.History); d != "" {
				t.Fatalf("seed %d did not replay:\n%s", *chaosSeed, d)
			}
			if a.HistorySHA256 == "" || a.HistorySHA256 != b.HistorySHA256 {
				t.Fatalf("equal histories hash differently: %q vs %q", a.HistorySHA256, b.HistorySHA256)
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

// TestChaosSeedSensitivity guards against the opposite failure: a harness
// that ignores its seed would trivially "replay". Different seeds must
// (for at least one scenario) choose different access sets.
func TestChaosSeedSensitivity(t *testing.T) {
	sc, ok := find("benign/calm")
	if !ok {
		t.Fatal("benign/calm missing")
	}
	cfgA, _ := sc.Build(1, 1)
	cfgB, _ := sc.Build(1, 2)
	a, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.History.Diff(b.History); d == "" {
		t.Fatal("seeds 1 and 2 produced identical histories; the harness is ignoring its seed")
	}
	if a.HistorySHA256 == b.HistorySHA256 {
		t.Fatalf("different histories share the hash %s", a.HistorySHA256)
	}
}

// TestNegativeScenarioFails is the acceptance negative test: a Byzantine
// scenario whose measured ε exceeds the configured bound must fail the
// checker.
func TestNegativeScenarioFails(t *testing.T) {
	cfg, err := NegativeConfig(1, *chaosSeed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	c := rep.Check
	t.Logf("negative: ε=%.4f (eligible %.4f over %d) bound=%.3g p=%.3g fooled=%d",
		c.Epsilon, c.EligibleEpsilon, c.EligibleReads, c.Bound, c.PValue, c.Fooled)
	if c.Fooled == 0 {
		t.Fatalf("negative scenario fooled no reads; the adversary is toothless")
	}
	if c.EligibleEpsilon <= c.Bound {
		t.Fatalf("measured ε %.4g not above the configured bound %.4g", c.EligibleEpsilon, c.Bound)
	}
	if c.Pass {
		t.Fatalf("checker passed a run whose measured ε %.4f exceeds the configured bound %.3g", c.EligibleEpsilon, c.Bound)
	}
}

// TestSigAudit: dissem/bad-sig-echo really does make the reader run
// signature checks and really does look at what correct servers store, on
// both data planes; and each of the audit's two assertions fails a run that
// deserves it.
func TestSigAudit(t *testing.T) {
	build := func(t *testing.T, name string) Config {
		t.Helper()
		sc, ok := find(name)
		if !ok {
			t.Fatalf("%s scenario missing", name)
		}
		cfg, err := sc.Build(1, *chaosSeed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SigAudit = true
		return cfg
	}
	violations := func(t *testing.T, cfg Config, containing string) int {
		t.Helper()
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range rep.Check.Violations {
			if strings.Contains(v, containing) {
				n++
			}
		}
		if (n > 0) == rep.Check.Pass {
			t.Fatalf("%d violations containing %q, yet pass=%v", n, containing, rep.Check.Pass)
		}
		return n
	}

	for _, plane := range []string{sim.TransportMem, sim.TransportTCPVirtual} {
		t.Run("bad-sig-echo/"+plane, func(t *testing.T) {
			cfg := build(t, "dissem/bad-sig-echo")
			cfg.Transport = plane
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Check.Pass {
				t.Fatalf("violations: %v", rep.Check.Violations)
			}
			// Every write is read back once: signed here, so never checked.
			if rep.SigChecks == 0 || rep.SigReused < uint64(cfg.Ops) || rep.StoredAudited == 0 {
				t.Errorf("SigChecks %d, SigReused %d, StoredAudited %d over %d pairs", rep.SigChecks, rep.SigReused, rep.StoredAudited, cfg.Ops)
			}
		})
	}
	t.Run("wrong-length forgeries cost no check", func(t *testing.T) {
		// dissem/forgers answers under an unknown writer with a 33-byte
		// signature: refused before ed25519, which the audit reports.
		if n := violations(t, build(t, "dissem/forgers"), "ran no ed25519 check"); n != 1 {
			t.Errorf("%d violations, want 1", n)
		}
	})
	t.Run("garbage on a correct server is found", func(t *testing.T) {
		// dissem/corrupt flips bits in writes on their way to correct
		// servers, which store them unverified.
		if n := violations(t, build(t, "dissem/corrupt"), "does not verify"); n == 0 {
			t.Error("the audit found nothing wrong with corrupted stores")
		}
	})
}

// TestGossipUnderFireExercisesTheMachinery asserts the gossip-under-fire
// scenario genuinely runs what it advertises: a virtual-time run that
// consumed simulated seconds, hedged around stragglers, stepped diffusion
// rounds and merged entries across stores — not a configuration that
// silently degraded to the plain harness.
func TestGossipUnderFireExercisesTheMachinery(t *testing.T) {
	sc, ok := find("masking/gossip-under-fire")
	if !ok {
		t.Fatal("masking/gossip-under-fire missing from the library")
	}
	cfg, err := sc.Build(1, *chaosSeed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.SimSeconds <= 0 {
		t.Errorf("run did not record virtual time: sim_seconds=%v", rep.SimSeconds)
	}
	if rep.GossipRounds == 0 {
		t.Error("no diffusion rounds ran")
	}
	if rep.GossipMerged == 0 {
		t.Error("diffusion never merged an entry; gossip was a no-op")
	}
	if !rep.Check.Pass {
		t.Errorf("scenario failed its bound: %+v", rep.Check)
	}
	t.Logf("simulated %.3fs, %d gossip rounds, %d entries merged",
		rep.SimSeconds, rep.GossipRounds, rep.GossipMerged)
}

// TestDeltaGossipSuppressesBytes is the delta-gossip acceptance check: in
// scenarios that run many rounds over mostly-stable stores, the watermark
// exchange must push strictly fewer payload bytes than the old
// full-snapshot push would have — counter-asserted on the aggregated
// BytesSuppressed — while the run still converges and passes its ε bound.
func TestDeltaGossipSuppressesBytes(t *testing.T) {
	for _, name := range []string{"benign/churn", "masking/gossip-under-fire"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := find(name)
			if !ok {
				t.Fatalf("%s missing from the library", name)
			}
			cfg, err := sc.Build(1, *chaosSeed)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !rep.Check.Pass {
				t.Fatalf("scenario failed its bound: %+v", rep.Check)
			}
			if rep.GossipMerged == 0 {
				t.Fatal("diffusion never merged an entry; gossip was a no-op")
			}
			if rep.GossipBytesPushed == 0 {
				t.Fatal("no gossip payload bytes pushed; counters are dead")
			}
			// Full push would have sent pushed+suppressed bytes every
			// round; the delta must have saved something real.
			if rep.GossipBytesSuppressed == 0 {
				t.Errorf("delta gossip suppressed 0 bytes over %d rounds (pushed %d)",
					rep.GossipRounds, rep.GossipBytesPushed)
			}
			t.Logf("%d rounds: pushed %d bytes, suppressed %d (%.1f%% of full push), %d full syncs",
				rep.GossipRounds, rep.GossipBytesPushed, rep.GossipBytesSuppressed,
				100*float64(rep.GossipBytesSuppressed)/float64(rep.GossipBytesPushed+rep.GossipBytesSuppressed),
				rep.GossipFullSyncs)
		})
	}
}

// TestCheckClassification exercises the checker on a hand-written history.
func TestCheckClassification(t *testing.T) {
	st := func(c uint64) ts.Stamp { return ts.Stamp{Counter: c, Writer: 1} }
	h := History{
		{Seq: 0, Time: 0, Kind: OpWrite, Key: "a", Value: "v0", Stamp: st(1), Full: true},
		{Seq: 1, Time: 0, Kind: OpRead, Key: "a", Value: "v0", Stamp: st(1), Found: true}, // correct
		{Seq: 2, Time: 1, Kind: OpWrite, Key: "a", Value: "v1", Stamp: st(2), Full: true},
		{Seq: 3, Time: 1, Kind: OpRead, Key: "a", Value: "v0", Stamp: st(1), Found: true}, // stale depth 1
		{Seq: 4, Time: 2, Kind: OpWrite, Key: "a", Value: "v2", Stamp: st(3), Full: true},
		{Seq: 5, Time: 2, Kind: OpRead, Key: "a", Value: "forged", Stamp: st(99), Found: true}, // fooled
		{Seq: 6, Time: 3, Kind: OpRead, Key: "a", Found: false},                                // stale depth 3 (⊥ after 3 writes)
		{Seq: 7, Time: 4, Kind: OpRead, Key: "a", Err: "no replies"},                           // unavailable
		{Seq: 8, Time: 5, Kind: OpRead, Key: "b", Found: false},                                // correct (no writes to b)
	}
	res := Check(h, CheckConfig{Mode: register.Benign, Bound: 0.01})
	if res.Correct != 2 || res.Stale != 2 || res.Fooled != 1 || res.Unavailable != 1 {
		t.Fatalf("classification = correct %d stale %d fooled %d unavailable %d, want 2/2/1/1",
			res.Correct, res.Stale, res.Fooled, res.Unavailable)
	}
	if res.StaleDepth[1] != 1 || res.StaleDepth[3] != 1 {
		t.Fatalf("stale depth histogram = %v, want depth 1 and 3 once each", res.StaleDepth)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly the fooled benign read", res.Violations)
	}
	if res.Pass {
		t.Fatal("checker passed a history with a hard violation")
	}
	// The same fooled read in masking mode is not a violation, only ε.
	res = Check(h, CheckConfig{Mode: register.Masking, Bound: 1})
	if len(res.Violations) != 0 {
		t.Fatalf("masking-mode violations = %v, want none", res.Violations)
	}
	if !res.Pass {
		t.Fatal("bound 1 must pass without violations")
	}
}

// TestCheckerCapsViolations streams more fooled benign reads than a check
// lists: every one is counted and fails the run, only the first few are
// kept as strings.
func TestCheckerCapsViolations(t *testing.T) {
	c := NewChecker(CheckConfig{Mode: register.Benign, Bound: 1})
	c.Add(Op{Seq: 0, Kind: OpWrite, Key: "a", Value: "v", Stamp: ts.Stamp{Counter: 1, Writer: 1}, Full: true})
	const fooled = 3 * maxViolations
	for i := 1; i <= fooled; i++ {
		c.Add(Op{Seq: i, Kind: OpRead, Key: "a", Value: "forged", Stamp: ts.Stamp{Counter: 99, Writer: 1}, Found: true})
	}
	res := c.Result()
	if res.Fooled != fooled || len(res.Violations) != maxViolations {
		t.Fatalf("fooled %d, %d violations listed; want %d and %d", res.Fooled, len(res.Violations), fooled, maxViolations)
	}
	if res.Pass {
		t.Fatal("checker passed a stream of fooled benign reads")
	}
}

// TestHistoryDiff checks the divergence reporting the determinism test
// relies on.
func TestHistoryDiff(t *testing.T) {
	a := History{{Seq: 0, Kind: OpWrite, Key: "k", Value: "x"}}
	if d := a.Diff(History{{Seq: 0, Kind: OpWrite, Key: "k", Value: "x"}}); d != "" {
		t.Fatalf("identical histories diff: %s", d)
	}
	if d := a.Diff(History{{Seq: 0, Kind: OpWrite, Key: "k", Value: "y"}}); d == "" {
		t.Fatal("divergent value not reported")
	}
	if d := a.Diff(History{}); d == "" {
		t.Fatal("length mismatch not reported")
	}
}

// TestCorruptMessage checks the corruption helper: the mutated message must
// either decode (and differ from the original in at least some runs) or be
// reported undecodable — never panic, never return the original encoding's
// identity for every draw.
func TestCorruptMessage(t *testing.T) {
	msg := wire.WriteRequest{Key: "k", Value: []byte("value"), Stamp: ts.Stamp{Counter: 7, Writer: 1}}
	changed := 0
	for r := uint64(0); r < 200; r++ {
		out, ok := CorruptMessage(msg, splitmix64(r))
		if !ok {
			continue
		}
		if w, isW := out.(wire.WriteRequest); !isW || string(w.Value) != "value" || w.Key != "k" || w.Stamp != msg.Stamp {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("200 corruption draws never changed the message")
	}
}

// TestEquivocatorUnique checks that an equivocator never repeats a pair —
// the property that keeps it below any masking threshold k >= 2.
func TestEquivocatorUnique(t *testing.T) {
	e := &Equivocator{ID: 3}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		r, err := e.OnRead("k", wire.ReadReply{})
		if err != nil {
			t.Fatal(err)
		}
		key := string(r.Value) + r.Stamp.String()
		if seen[key] {
			t.Fatalf("equivocator repeated pair %q", key)
		}
		seen[key] = true
	}
}

// TestMostSampledDeterministic checks placement stability and size.
func TestMostSampledDeterministic(t *testing.T) {
	sc, _ := find("masking/colluders")
	cfg, err := sc.Build(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MostSampled(cfg.System, 5, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := MostSampled(cfg.System, 5, 500, 42)
	if len(a) != 5 {
		t.Fatalf("MostSampled returned %d ids, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("MostSampled not deterministic: %v vs %v", a, b)
		}
	}
}

// TestPerCellBoundHasTeeth is the per-cell negative test: one cell whose
// measured ε blows its per-cell bound must fail the run even though the
// GLOBAL average stays comfortably inside the same bound. A synthetic
// 4-cell history gives every cell 1000 eligible reads; cell 2 returns ⊥
// for 100 of them (ε=0.10) while the rest are perfect, so the global rate
// is 100/4000 = 0.025 — under the 0.03 bound the global binomial test
// happily accepts.
func TestPerCellBoundHasTeeth(t *testing.T) {
	const cells, readsPerCell, badInCell2 = 4, 1000, 100
	st := func(c uint64) ts.Stamp { return ts.Stamp{Counter: c, Writer: 1} }
	var h History
	seq := 0
	for c := 0; c < cells; c++ {
		key := fmt.Sprintf("cell-key-%d", c)
		h = append(h, Op{Seq: seq, Kind: OpWrite, Key: key, Value: "v", Stamp: st(1), Full: true, Cell: c})
		seq++
		for i := 0; i < readsPerCell; i++ {
			op := Op{Seq: seq, Kind: OpRead, Key: key, Cell: c}
			if c == 2 && i < badInCell2 {
				op.Found = false // stale: ⊥ after a completed full write
			} else {
				op.Found, op.Value, op.Stamp = true, "v", st(1)
			}
			h = append(h, op)
			seq++
		}
	}
	const bound = 0.03
	// Without per-cell accounting the run passes: the global average hides
	// the hot cell.
	global := Check(h, CheckConfig{Mode: register.Benign, Bound: bound})
	if !global.Pass {
		t.Fatalf("global-only check failed (ε=%.4f p=%.3g); the negative test needs a passing average to be meaningful",
			global.EligibleEpsilon, global.PValue)
	}
	// With per-cell accounting, cell 2 must sink the verdict.
	res := Check(h, CheckConfig{Mode: register.Benign, Bound: bound, Cells: cells})
	if len(res.Cells) != cells {
		t.Fatalf("per-cell sections = %d, want %d", len(res.Cells), cells)
	}
	if res.PValue < DefaultAlpha {
		t.Fatalf("global p-value %.3g rejects; the failure should come from the cell section alone", res.PValue)
	}
	for _, cr := range res.Cells {
		want := cr.Cell != 2
		if cr.Pass != want {
			t.Errorf("cell %d pass=%v (ε=%.4f over %d reads, p=%.3g), want pass=%v",
				cr.Cell, cr.Pass, cr.EligibleEpsilon, cr.EligibleReads, cr.PValue, want)
		}
	}
	if got := res.Cells[2].EligibleEpsilon; got < 0.09 || got > 0.11 {
		t.Errorf("cell 2 measured ε=%.4f, want ~0.10", got)
	}
	if res.Pass {
		t.Fatal("checker passed a run in which cell 2 exceeds its per-cell bound (global average masked it)")
	}
}
