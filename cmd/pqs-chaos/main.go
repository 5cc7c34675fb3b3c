// Command pqs-chaos runs the chaos scenario matrix, or with -load the
// population-scale load matrix, and emits a JSON report: one entry per row
// (a scenario on a transport, or a scale point) with the empirical ε, the
// theorem bound, the checker's p-value and the PBS-style staleness depths.
// It exits non-zero if a shipped row fails its bound, which makes it a CI
// gate (make chaos-short, chaos-tcp, sim-scale).
//
// Usage:
//
//	pqs-chaos                      # the chaos matrix, scale 1, seed 1, JSON to stdout
//	pqs-chaos -scale 5 -seed 7     # longer runs from another seed
//	pqs-chaos -scenario 'masking/' # the rows whose name holds the substring
//	pqs-chaos -list                # scenario names and docs
//	pqs-chaos -transport mem,tcp-virtual
//	                               # the matrix on each plane; tcp-virtual is the REAL
//	                               # TCP stack on virtual-time byte streams
//	pqs-chaos -verify-determinism  # run every row twice and fail unless the replay
//	                               # matches: a chaos history op for op and its
//	                               # sim_seconds, a load result whole (the CI gate)
//	pqs-chaos -json FILE           # also write the per-row ε trend document, one
//	                               # section per transport (BENCH_epsilon.out in CI;
//	                               # BENCH_epsilon.json is the committed one)
//	pqs-chaos -negative            # also run the negative configuration: its failure
//	                               # is expected, and its passing fails the invocation
//	pqs-chaos -load                # the load matrix (internal/load's scale/ points);
//	                               # -seed, -scenario, -list, -negative,
//	                               # -verify-determinism and -json compose
//	pqs-chaos -load -budget 5m     # fail unless the whole matrix, replays included,
//	                               # finishes inside the wall-clock budget
//
// Every row is its own virtual-time world (a vtime.SimClock), deterministic
// in -seed: a failing CI seed reproduces the identical history locally (see
// also go test ./internal/chaos -run TestChaos -chaos.seed=N). Rows run side
// by side on a pool of half the cores (1 to 4) and are reported in matrix
// order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"pqs/internal/chaos"
	"pqs/internal/load"
	"pqs/internal/sim"
)

// A row is one entry of the matrix: a chaos scenario on one transport, a
// load scale point (transport "": it names its own), or a negative
// configuration, which is expected to fail. run builds the row's
// configuration afresh and runs it once on transport.
type row struct {
	name, doc, transport string
	expectFail           bool
	run                  func(transport string) (outcome, error)
}

// An outcome is one run of a row, a chaos report or a load result alike:
// its JSON fields, label and verdict, and what a replay must reproduce.
type outcome struct {
	report          any // the *chaos.Report or *load.Result, reported as it marshals
	name, transport string
	check           chaos.CheckResult
	simSeconds      float64
	// What a replay of the row must reproduce: history op for op (a chaos
	// run's; a load run keeps none), simSeconds, and same (a load run's
	// whole result; nil for a chaos run, whose aggregate counters are not
	// pinned). fingerprint (the history's SHA-256 or a load run's digest)
	// names a run in a replay's diff.
	history     chaos.History
	fingerprint string
	same        any
	// detail is the row's own part of its stderr line, after the verdict;
	// metrics its own entries in the -json trend document.
	detail  string
	metrics map[string]float64
}

func chaosOutcome(r *chaos.Report) outcome {
	m := map[string]float64{}
	if r.GossipRounds > 0 {
		m["gossip_rounds"] = float64(r.GossipRounds)
		m["gossip_merged"] = float64(r.GossipMerged)
	}
	return outcome{report: r, name: r.Name, transport: r.Transport, check: r.Check, simSeconds: r.SimSeconds,
		history: r.History, fingerprint: r.HistorySHA256,
		detail: fmt.Sprintf("  [%.1fs sim]", r.SimSeconds), metrics: m}
}

func loadOutcome(r *load.Result) outcome {
	m := map[string]float64{"n": float64(r.N), "q": float64(r.Q), "clients": float64(r.Clients), "ops": float64(r.Ops)}
	if r.LatencyOps > 0 {
		m["p50_ms"], m["p99_ms"], m["p999_ms"] = r.P50Ms, r.P99Ms, r.P999Ms
	}
	churn := ""
	if r.Departures > 0 {
		m["departures"] = float64(r.Departures)
		churn = fmt.Sprintf("; %d departures", r.Departures)
	}
	return outcome{report: r, name: r.Name, transport: r.Transport, check: r.CheckResult, simSeconds: r.SimSeconds,
		fingerprint: r.Digest, same: r,
		detail: fmt.Sprintf("  n=%d clients=%d ops=%d p50=%.2fms p99=%.2fms p999=%.2fms  [%.1fs sim%s]",
			r.N, r.Clients, r.Ops, r.P50Ms, r.P99Ms, r.P999Ms, r.SimSeconds, churn),
		metrics: m}
}

// replayDiff says how replay, a second run of the same row, differs from
// o ("" = it does not).
func (o outcome) replayDiff(replay outcome) string {
	if d := o.history.Diff(replay.history); d != "" {
		return d
	}
	if o.simSeconds != replay.simSeconds || !reflect.DeepEqual(o.same, replay.same) {
		return fmt.Sprintf("fingerprints %s vs %s, sim_seconds %v vs %v", o.fingerprint, replay.fingerprint, o.simSeconds, replay.simSeconds)
	}
	return ""
}

// verdictSummary renders a verdict: ε over the eligible reads, the bound,
// and the p-value that decided Pass — the timed one when the run churned,
// with the flat one beside it — then the worst cell of a multi-cell run.
func verdictSummary(c chaos.CheckResult) string {
	p := fmt.Sprintf("p=%.3g", c.PValue)
	if t := c.Timed; t != nil {
		p = fmt.Sprintf("timed p=%.3g (%d depth buckets, max bound %.3g; flat p=%.3g)",
			t.PValue, len(t.Groups), t.MaxBound, c.PValue)
	}
	cells := ""
	if n := len(c.Cells); n > 0 {
		worst := c.Cells[0]
		for _, cell := range c.Cells[1:] {
			if cell.EligibleEpsilon > worst.EligibleEpsilon {
				worst = cell
			}
		}
		cells = fmt.Sprintf("  [%d cells; worst cell %d ε=%.5f p=%.3g]",
			n, worst.Cell, worst.EligibleEpsilon, worst.PValue)
	}
	return fmt.Sprintf("ε=%.5f (eligible %d/%d) bound=%.3g %s%s",
		c.EligibleEpsilon, c.EligibleBad, c.EligibleReads, c.Bound, p, cells)
}

// verdictMetrics is a verdict's part of the trend document: the flat test,
// the timed one when the run churned, the staleness depths and, in a
// multi-cell run, each cell's section.
func verdictMetrics(c chaos.CheckResult) map[string]float64 {
	m := map[string]float64{
		"epsilon":          c.Epsilon,
		"eligible_epsilon": c.EligibleEpsilon,
		"eligible_reads":   float64(c.EligibleReads),
		"eligible_bad":     float64(c.EligibleBad),
		"reads":            float64(c.Reads),
		"stale":            float64(c.Stale),
		"bound":            c.Bound,
		"p_value":          c.PValue,
		"pass":             boolMetric(c.Pass),
	}
	if t := c.Timed; t != nil {
		m["timed_p_value"] = t.PValue
		m["timed_max_bound"] = t.MaxBound
		m["timed_pass"] = boolMetric(t.Pass)
		m["timed_depth_buckets"] = float64(len(t.Groups))
	}
	for d, cnt := range c.StaleDepth {
		m[fmt.Sprintf("stale_depth_%d", d)] = float64(cnt)
	}
	// One ε section per quorum cell, so a cell-local drift shows across PRs
	// even when the global average holds.
	for _, cell := range c.Cells {
		p := fmt.Sprintf("cell_%d_", cell.Cell)
		m[p+"epsilon"] = cell.EligibleEpsilon
		m[p+"eligible_reads"] = float64(cell.EligibleReads)
		m[p+"eligible_bad"] = float64(cell.EligibleBad)
		m[p+"p_value"] = cell.PValue
		m[p+"pass"] = boolMetric(cell.Pass)
	}
	return m
}

// rowMetrics is a row's entry in the trend document: its verdict's
// metrics, its own, its virtual time and, over wall, its speed-up.
func rowMetrics(o outcome, wall float64) map[string]float64 {
	m := verdictMetrics(o.check)
	for k, v := range o.metrics {
		m[k] = v
	}
	m["sim_seconds"] = o.simSeconds
	if wall > 0 {
		m["speedup"] = o.simSeconds / wall
	}
	return m
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// entry is one row of the JSON report: the run's own fields, then the
// row's.
type entry struct {
	outcome
	rowFields
}

type rowFields struct {
	// Expected distinguishes a negative configuration ("fail") from the
	// shipped rows ("pass").
	Expected string `json:"expected"`
	// WallSeconds is how long the row's first run took; the run's
	// sim_seconds over it is the simulation's speed-up.
	WallSeconds float64 `json:"wall_seconds"`
	// Deterministic is set when -verify-determinism re-ran the row: true
	// means the replay matched (see outcome.replayDiff).
	Deterministic *bool `json:"deterministic,omitempty"`
}

// MarshalJSON flattens the run's fields and the row's into one object.
func (e entry) MarshalJSON() ([]byte, error) {
	o, err := json.Marshal(e.report)
	if err != nil {
		return nil, err
	}
	r, err := json.Marshal(e.rowFields)
	if err != nil {
		return nil, err
	}
	return append(append(o[:len(o)-1], ','), r[1:]...), nil
}

// matrixReport is the top-level JSON document.
type matrixReport struct {
	// context is the matrix's part of the trend document's context block;
	// Scale and Transports describe a chaos matrix.
	context       map[string]any
	Seed          int64    `json:"seed"`
	Scale         int      `json:"scale,omitempty"`
	Transports    []string `json:"transports,omitempty"`
	BudgetSeconds float64  `json:"budget_seconds,omitempty"`
	WallSeconds   float64  `json:"wall_seconds"`
	Scenarios     []entry  `json:"scenarios"`
	AllPass       bool     `json:"all_pass"`
}

// epsilonDoc is the layout of the -json trend document (the committed
// BENCH_epsilon.json), mirroring BENCH_throughput.json so one tool diffs
// either: a context block plus named entries, each with its transport and
// a flat metrics map.
type epsilonDoc struct {
	Context   map[string]any `json:"context"`
	Scenarios []epsilonEntry `json:"scenarios"`
}

type epsilonEntry struct {
	Name      string             `json:"name"`
	Transport string             `json:"transport"`
	Metrics   map[string]float64 `json:"metrics"`
}

// buildEpsilonDoc flattens the matrix into the trend document.
func buildEpsilonDoc(rep matrixReport) epsilonDoc {
	ctx := map[string]any{
		"goos":   runtime.GOOS,
		"goarch": runtime.GOARCH,
		"pkg":    "pqs",
		"seed":   rep.Seed,
	}
	for k, v := range rep.context {
		ctx[k] = v
	}
	doc := epsilonDoc{Context: ctx}
	for _, e := range rep.Scenarios {
		if e.Expected == "fail" {
			// The negative demo exists to prove the checker has teeth; a
			// permanently "failing" row would poison the trend document
			// (every cross-PR diff would flag it as a regression).
			continue
		}
		m := rowMetrics(e.outcome, e.WallSeconds)
		m["wall_seconds"] = e.WallSeconds
		if e.Deterministic != nil {
			m["deterministic"] = boolMetric(*e.Deterministic)
		}
		doc.Scenarios = append(doc.Scenarios, epsilonEntry{Name: e.name, Transport: e.transport, Metrics: m})
	}
	return doc
}

// options are the flags the matrix loop reads.
type options struct {
	verifyDet bool
	parallel  int
	budget    time.Duration
	out       string // -o ("" = stdout)
	epsJSON   string // -json ("" = none)
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "run seed (fixes every random choice)")
		scale     = flag.Int("scale", 1, "trial-count multiplier (1 is the CI short run)")
		match     = flag.String("scenario", "", "run only scenarios whose name contains this substring")
		list      = flag.Bool("list", false, "list scenario names and exit")
		negative  = flag.Bool("negative", false, "also run the intentionally failing negative scenario")
		out       = flag.String("o", "", "write the JSON report to this file instead of stdout")
		epsJSON   = flag.String("json", "", "also write per-scenario ε metrics to this file")
		transport = flag.String("transport", sim.TransportMem,
			"comma-separated data planes to run the matrix over: mem, tcp-virtual")
		verifyDet = flag.Bool("verify-determinism", false,
			"run each scenario twice and fail unless the replay matches")
		loadMode = flag.Bool("load", false,
			"run the population-scale load matrix (internal/load) instead of the chaos matrix")
		budget = flag.Duration("budget", 0,
			"fail unless the whole matrix finishes inside this wall-clock budget (0 disables)")
	)
	flag.Parse()

	// The matrix is a library of scenarios run on each of transports (one
	// pass, on the transport each scale point names, for -load), then the
	// negative configurations.
	var (
		rep        = matrixReport{Seed: *seed}
		lib, neg   []row
		transports = []string{""}
	)
	if *loadMode {
		rep.context = map[string]any{"mode": "load"}
		for _, sc := range load.Scenarios() {
			lib = append(lib, loadScenario(sc.Name, sc.Doc, sc.Build, *seed))
		}
		neg = append(neg, loadScenario("negative/view-blind", "", load.NegativeConfig, *seed))
	} else {
		transports = parseTransports(*transport)
		rep.Scale, rep.Transports = *scale, transports
		rep.context = map[string]any{"mode": "chaos", "scale": *scale, "transports": transports}
		for _, sc := range chaos.Scenarios() {
			lib = append(lib, chaosScenario(sc.Name, sc.Doc, sc.Build, *scale, *seed))
		}
		neg = append(neg, chaosScenario("negative", "", chaos.NegativeConfig, *scale, *seed))
	}
	if *list {
		for _, sc := range lib {
			fmt.Printf("%-28s %s\n", sc.name, sc.doc)
		}
		return
	}
	rows := matrixRows(lib, transports, *match, false)
	if *negative {
		rows = append(rows, matrixRows(neg, transports, "", true)...)
	}
	// A row is one SimClock worker plus GC, so a 4-vCPU runner fits two
	// side by side.
	parallel := min(max(runtime.NumCPU()/2, 1), 4)
	os.Exit(runMatrix(rep, rows, options{
		verifyDet: *verifyDet, parallel: parallel, budget: *budget, out: *out, epsJSON: *epsJSON,
	}))
}

func parseTransports(list string) (transports []string) {
	for _, tr := range strings.Split(list, ",") {
		switch tr = strings.TrimSpace(tr); tr {
		case "":
		case sim.TransportMem, sim.TransportTCPVirtual:
			transports = append(transports, tr)
		default:
			fatalf("unknown transport %q (want %s or %s)", tr, sim.TransportMem, sim.TransportTCPVirtual)
		}
	}
	if len(transports) == 0 {
		fatalf("no transport selected")
	}
	return transports
}

func chaosScenario(name, doc string, build func(int, int64) (chaos.Config, error), scale int, seed int64) row {
	return row{name: name, doc: doc, run: func(tr string) (outcome, error) {
		cfg, err := build(scale, seed)
		if err != nil {
			return outcome{}, err
		}
		cfg.Transport = tr
		rep, err := chaos.Run(cfg)
		if err != nil {
			return outcome{}, err
		}
		return chaosOutcome(rep), nil
	}}
}

func loadScenario(name, doc string, build func(int64) (load.Config, error), seed int64) row {
	return row{name: name, doc: doc, run: func(string) (outcome, error) {
		cfg, err := build(seed)
		if err != nil {
			return outcome{}, err
		}
		res, err := load.Run(cfg)
		if err != nil {
			return outcome{}, err
		}
		return loadOutcome(res), nil
	}}
}

// matrixRows is every row of lib whose name contains match, on each
// transport in turn.
func matrixRows(lib []row, transports []string, match string, expectFail bool) []row {
	var rows []row
	for _, tr := range transports {
		for _, r := range lib {
			if strings.Contains(r.name, match) {
				r.transport, r.expectFail = tr, expectFail
				rows = append(rows, r)
			}
		}
	}
	if len(rows) == 0 {
		fatalf("no scenario matches %q", match)
	}
	return rows
}

// runMatrix runs rows on a pool of o.parallel workers (twice under
// o.verifyDet, comparing the replay), prints and collects the outcomes in
// matrix order, writes the report to o.out (or stdout) and the trend
// document to o.epsJSON, if set, and returns the exit code: 1 if a shipped
// row failed or did not replay, an expected failure passed, or the matrix
// blew o.budget.
func runMatrix(rep matrixReport, rows []row, o options) int {
	type result struct {
		out    outcome
		wall   float64
		replay string
		err    error
	}
	results := make([]result, len(rows))
	done := make([]chan struct{}, len(rows))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, max(o.parallel, 1))
	start := time.Now()
	for i, r := range rows {
		go func() {
			sem <- struct{}{}
			defer func() { <-sem; close(done[i]) }()
			res := &results[i]
			t := time.Now()
			res.out, res.err = r.run(r.transport)
			res.wall = time.Since(t).Seconds()
			// A negative row is an expected failure, not a replay subject;
			// verifying it would double its cost for no signal.
			if res.err != nil || !o.verifyDet || r.expectFail {
				return
			}
			replay, err := r.run(r.transport)
			if err != nil {
				res.err = fmt.Errorf("replay: %w", err)
				return
			}
			res.replay = res.out.replayDiff(replay)
		}()
	}

	rep.AllPass = true
	for i, r := range rows {
		<-done[i]
		res := results[i]
		if res.err != nil {
			fatalf("run %s [%s]: %v", r.name, r.transport, res.err)
		}
		e := entry{outcome: res.out, rowFields: rowFields{Expected: "pass", WallSeconds: res.wall}}
		status := "PASS"
		if r.expectFail {
			e.Expected = "fail"
			status = "FAIL(expected)"
			if res.out.check.Pass {
				// The demo exists to show the checker has teeth; it
				// passing is a harness regression.
				status = "PASS(?)"
				rep.AllPass = false
			}
		} else if !res.out.check.Pass {
			status = "FAIL"
			rep.AllPass = false
		}
		name, transport := res.out.name, res.out.transport
		if o.verifyDet && !r.expectFail {
			det := res.replay == ""
			e.Deterministic = &det
			if !det {
				status = "NONDETERMINISTIC"
				rep.AllPass = false
				fmt.Fprintf(os.Stderr, "determinism violation in %s [%s]:\n%s\n", name, transport, res.replay)
			}
		}
		rep.Scenarios = append(rep.Scenarios, e)
		fmt.Fprintf(os.Stderr, "%-28s %-11s %s  %s  [%.2fs wall]\n", name, transport, status, verdictSummary(res.out.check)+res.out.detail, res.wall)
	}

	rep.WallSeconds = time.Since(start).Seconds()
	if o.budget > 0 {
		rep.BudgetSeconds = o.budget.Seconds()
		if rep.WallSeconds > rep.BudgetSeconds {
			fmt.Fprintf(os.Stderr, "pqs-chaos: matrix blew its wall-clock budget: %.1fs > %s\n", rep.WallSeconds, o.budget)
			rep.AllPass = false
		}
	}

	writeJSON(o.out, rep)
	if o.epsJSON != "" {
		doc := buildEpsilonDoc(rep)
		writeJSON(o.epsJSON, doc)
		fmt.Fprintf(os.Stderr, "wrote %s (%d rows)\n", o.epsJSON, len(doc.Scenarios))
	}
	if !rep.AllPass {
		return 1
	}
	return 0
}

// writeJSON writes v, indented, to path ("" = stdout).
func writeJSON(path string, v any) {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	enc = append(enc, '\n')
	if path == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pqs-chaos: "+format+"\n", args...)
	os.Exit(1)
}
