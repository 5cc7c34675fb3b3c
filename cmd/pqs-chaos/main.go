// Command pqs-chaos runs the chaos scenario matrix from the command line
// and emits a JSON report: one entry per scenario (and per transport) with
// the empirical ε, the theorem bound, the checker's p-value and the
// PBS-style staleness-depth distribution. The process exits non-zero if any
// shipped scenario fails its bound, which is what makes it a CI gate
// (make chaos-short, make chaos-tcp).
//
// Usage:
//
//	pqs-chaos                      # full matrix, scale 1, seed 1, JSON to stdout
//	pqs-chaos -scale 5 -seed 7     # longer runs from another seed
//	pqs-chaos -scenario 'masking/' # subset by substring
//	pqs-chaos -list                # print scenario names and docs
//	pqs-chaos -transport tcp-virtual
//	                               # run the matrix over the REAL TCP stack
//	                               # (binary codec, group-commit frame writer,
//	                               # read-loop dispatch) on virtual-time byte
//	                               # streams; comma-separate to run several
//	                               # planes in one invocation, e.g.
//	                               # -transport mem,tcp-virtual
//	pqs-chaos -verify-determinism  # run every row TWICE and fail unless the
//	                               # replay matches: a chaos row's history
//	                               # byte-for-byte and its sim_seconds, a
//	                               # load row's whole result (the CI
//	                               # determinism gate)
//	pqs-chaos -json FILE           # also write per-row ε metrics to FILE
//	                               # (the make targets and CI write
//	                               # BENCH_epsilon.out, the artifact tracking
//	                               # the ε trend across PRs; -json
//	                               # BENCH_epsilon.json refreshes the
//	                               # committed document), with one section
//	                               # per transport
//	pqs-chaos -negative            # also run the intentionally failing
//	                               # negative configuration (it demonstrates
//	                               # the checker: its failure is expected,
//	                               # and it passing fails the invocation)
//	pqs-chaos -load                # run the population-scale load matrix
//	                               # (internal/load's scale/ scenarios: 10k+
//	                               # clients against n>=1000 universes, over
//	                               # a million operations) instead of the
//	                               # chaos matrix; -seed, -scenario, -list,
//	                               # -negative, -verify-determinism and -json
//	                               # compose
//	pqs-chaos -load -budget 5m     # fail unless the whole matrix (including
//	                               # the determinism re-runs) finishes inside
//	                               # the wall-clock budget — the CI guard
//	                               # keeping population-scale simulation
//	                               # CI-affordable (0 disables)
//
// Every row is its own virtual-time world (a vtime.SimClock), deterministic
// in -seed: a failing seed from CI reproduces the identical history locally
// (see also: go test ./internal/chaos -run TestChaos -chaos.seed=N). Rows
// therefore run side by side on a pool of half the cores (at least 1, at
// most 4), and are printed and reported in matrix order.
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
// load scale point, or a negative configuration, which is expected to fail.
// run builds the row's configuration afresh and runs it once; name labels
// the row's errors.
type row struct {
	name       string
	expectFail bool
	run        func() (outcome, error)
}

// An outcome is one run of a row: a chaos report or a load result. Either
// carries one verdict, the checker's, which verdictSummary and
// verdictMetrics render the same way for both.
type outcome interface {
	// label is the row's name and transport, as the outcome reports them.
	label() (name, transport string)
	check() chaos.CheckResult
	// replayDiff says how a replay of the same row differs ("" = it does
	// not).
	replayDiff(replay outcome) string
	// detail is the row's own part of its stderr line, after the verdict.
	detail() string
	// addMetrics adds the row's own entries to its metrics in the -json
	// trend document; wall is the seconds the run took.
	addMetrics(m map[string]float64, wall float64)
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
	// Multi-cell scenarios carry one ε section per quorum cell: the checker
	// enforces the theorem bound per cell (a hot cell fails the run even
	// when the global average passes), and the trend document records each
	// cell's measured ε so a cell-local drift is visible across PRs.
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

type chaosOutcome struct{ *chaos.Report }

func (o chaosOutcome) label() (string, string)  { return o.Name, o.Transport }
func (o chaosOutcome) check() chaos.CheckResult { return o.Check }

func (o chaosOutcome) replayDiff(replay outcome) string {
	r := replay.(chaosOutcome)
	if d := o.History.Diff(r.History); d != "" {
		return d
	}
	if o.SimSeconds != r.SimSeconds {
		return fmt.Sprintf("equal histories, sim_seconds %v vs %v", o.SimSeconds, r.SimSeconds)
	}
	return ""
}

func (o chaosOutcome) detail() string { return fmt.Sprintf("  [%.1fs sim]", o.SimSeconds) }

func (o chaosOutcome) addMetrics(m map[string]float64, wall float64) {
	m["sim_seconds"] = o.SimSeconds
	if wall > 0 {
		m["speedup"] = o.SimSeconds / wall
	}
	if o.GossipRounds > 0 {
		m["gossip_rounds"] = float64(o.GossipRounds)
		m["gossip_merged"] = float64(o.GossipMerged)
	}
}

type loadOutcome struct{ *load.Result }

func (o loadOutcome) label() (string, string)  { return o.Name, o.Transport }
func (o loadOutcome) check() chaos.CheckResult { return o.CheckResult }

func (o loadOutcome) replayDiff(replay outcome) string {
	r := replay.(loadOutcome)
	if reflect.DeepEqual(o.Result, r.Result) {
		return ""
	}
	return fmt.Sprintf("digests %s vs %s, sim_seconds %v vs %v", o.Digest, r.Digest, o.SimSeconds, r.SimSeconds)
}

func (o loadOutcome) detail() string {
	churn := ""
	if o.Departures > 0 {
		churn = fmt.Sprintf("; %d departures", o.Departures)
	}
	return fmt.Sprintf("  n=%d clients=%d ops=%d p50=%.2fms p99=%.2fms p999=%.2fms  [%.1fs sim%s]",
		o.N, o.Clients, o.Ops, o.P50Ms, o.P99Ms, o.P999Ms, o.SimSeconds, churn)
}

func (o loadOutcome) addMetrics(m map[string]float64, _ float64) {
	m["sim_seconds"] = o.SimSeconds
	m["n"] = float64(o.N)
	m["q"] = float64(o.Q)
	m["clients"] = float64(o.Clients)
	m["ops"] = float64(o.Ops)
	if o.LatencyOps > 0 {
		m["p50_ms"] = o.P50Ms
		m["p99_ms"] = o.P99Ms
		m["p999_ms"] = o.P999Ms
	}
	if o.Departures > 0 {
		m["departures"] = float64(o.Departures)
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// entry is one row of the JSON report: the outcome's own fields, then the
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

// MarshalJSON flattens the outcome's fields and the row's into one object.
func (e entry) MarshalJSON() ([]byte, error) {
	o, err := json.Marshal(e.outcome)
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
	// mode is "chaos" or "load"; Scale and Transports describe a chaos
	// matrix.
	mode          string
	Seed          int64    `json:"seed"`
	Scale         int      `json:"scale,omitempty"`
	Transports    []string `json:"transports,omitempty"`
	BudgetSeconds float64  `json:"budget_seconds,omitempty"`
	WallSeconds   float64  `json:"wall_seconds"`
	Scenarios     []entry  `json:"scenarios"`
	AllPass       bool     `json:"all_pass"`
}

// epsilonDoc is the layout of the -json trend document (the committed
// BENCH_epsilon.json), mirroring BENCH_throughput.json: a context block plus
// named entries with a flat metrics map, so the same tooling can diff either
// file across PRs. Entries carry their transport, giving the document one
// section per data plane when several run in one invocation.
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
		"mode":   rep.mode,
		"seed":   rep.Seed,
	}
	if rep.mode == "chaos" {
		ctx["scale"] = rep.Scale
		ctx["transports"] = rep.Transports
	}
	doc := epsilonDoc{Context: ctx}
	for _, e := range rep.Scenarios {
		if e.Expected == "fail" {
			// The negative demo exists to prove the checker has teeth; a
			// permanently "failing" row would poison the trend document
			// (every cross-PR diff would flag it as a regression).
			continue
		}
		m := verdictMetrics(e.check())
		e.addMetrics(m, e.WallSeconds)
		m["wall_seconds"] = e.WallSeconds
		if e.Deterministic != nil {
			m["deterministic"] = boolMetric(*e.Deterministic)
		}
		name, transport := e.label()
		doc.Scenarios = append(doc.Scenarios, epsilonEntry{Name: name, Transport: transport, Metrics: m})
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

	if *list {
		if *loadMode {
			for _, sc := range load.Scenarios() {
				fmt.Printf("%-28s %s\n", sc.Name, sc.Doc)
			}
			return
		}
		for _, sc := range chaos.Scenarios() {
			fmt.Printf("%-28s %s\n", sc.Name, sc.Doc)
		}
		return
	}

	var (
		rep  matrixReport
		rows []row
	)
	if *loadMode {
		rep = matrixReport{mode: "load", Seed: *seed}
		rows = loadRows(*seed, *match, *negative)
	} else {
		transports := parseTransports(*transport)
		rep = matrixReport{mode: "chaos", Seed: *seed, Scale: *scale, Transports: transports}
		rows = chaosRows(transports, *scale, *seed, *match, *negative)
	}
	// A row is one SimClock worker plus GC, so a 4-vCPU runner fits two
	// side by side.
	parallel := min(max(runtime.NumCPU()/2, 1), 4)
	os.Exit(runMatrix(rep, rows, options{
		verifyDet: *verifyDet, parallel: parallel, budget: *budget, out: *out, epsJSON: *epsJSON,
	}))
}

func parseTransports(list string) []string {
	var transports []string
	for _, tr := range strings.Split(list, ",") {
		tr = strings.TrimSpace(tr)
		if tr == "" {
			continue
		}
		if tr != sim.TransportMem && tr != sim.TransportTCPVirtual {
			fatalf("unknown transport %q (want %s or %s)", tr, sim.TransportMem, sim.TransportTCPVirtual)
		}
		transports = append(transports, tr)
	}
	if len(transports) == 0 {
		fatalf("no transport selected")
	}
	return transports
}

// chaosRows is the chaos matrix: every matching scenario on each transport
// in turn, then the negative configuration on each.
func chaosRows(transports []string, scale int, seed int64, match string, negative bool) []row {
	var rows []row
	add := func(name, tr string, expectFail bool, build func(int, int64) (chaos.Config, error)) {
		rows = append(rows, row{name: name + " [" + tr + "]", expectFail: expectFail, run: func() (outcome, error) {
			cfg, err := build(scale, seed)
			if err != nil {
				return nil, err
			}
			cfg.Transport = tr
			rep, err := chaos.Run(cfg)
			if err != nil {
				return nil, err
			}
			return chaosOutcome{rep}, nil
		}})
	}
	for _, tr := range transports {
		for _, sc := range chaos.Scenarios() {
			if match == "" || strings.Contains(sc.Name, match) {
				add(sc.Name, tr, false, sc.Build)
			}
		}
	}
	if len(rows) == 0 {
		fatalf("no scenario matches %q", match)
	}
	if negative {
		for _, tr := range transports {
			add("negative", tr, true, chaos.NegativeConfig)
		}
	}
	return rows
}

// loadRows is the load matrix: every matching scale point, then the
// negative configuration.
func loadRows(seed int64, match string, negative bool) []row {
	var rows []row
	add := func(name string, expectFail bool, build func(int64) (load.Config, error)) {
		rows = append(rows, row{name: name, expectFail: expectFail, run: func() (outcome, error) {
			cfg, err := build(seed)
			if err != nil {
				return nil, err
			}
			res, err := load.Run(cfg)
			if err != nil {
				return nil, err
			}
			return loadOutcome{res}, nil
		}})
	}
	for _, sc := range load.Scenarios() {
		if match == "" || strings.Contains(sc.Name, match) {
			add(sc.Name, false, sc.Build)
		}
	}
	if len(rows) == 0 {
		fatalf("no scale scenario matches %q", match)
	}
	if negative {
		add("negative/view-blind", true, load.NegativeConfig)
	}
	return rows
}

// runMatrix is the one matrix loop. Every row is an independent SimClock
// world, so rows run on a pool of o.parallel workers; each runs (twice under
// o.verifyDet, comparing the replay), and the outcomes are printed and
// collected in matrix order. It writes the report to o.out (or stdout) and,
// to o.epsJSON, if set, the trend document, and returns the exit code: 1 if a
// shipped row failed or did not replay, an expected failure passed, or the
// matrix blew o.budget.
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
			res.out, res.err = r.run()
			res.wall = time.Since(t).Seconds()
			// A negative row is an expected failure, not a replay subject;
			// verifying it would double its cost for no signal.
			if res.err != nil || !o.verifyDet || r.expectFail {
				return
			}
			replay, err := r.run()
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
			fatalf("run %s: %v", r.name, res.err)
		}
		e := entry{outcome: res.out, rowFields: rowFields{Expected: "pass", WallSeconds: res.wall}}
		status := "PASS"
		if r.expectFail {
			e.Expected = "fail"
			status = "FAIL(expected)"
			if res.out.check().Pass {
				// The demo exists to show the checker has teeth; it
				// passing is a harness regression.
				status = "PASS(?)"
				rep.AllPass = false
			}
		} else if !res.out.check().Pass {
			status = "FAIL"
			rep.AllPass = false
		}
		name, transport := res.out.label()
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
		fmt.Fprintf(os.Stderr, "%-28s %-11s %s  %s  [%.2fs wall]\n", name, transport, status, verdictSummary(res.out.check())+res.out.detail(), res.wall)
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
