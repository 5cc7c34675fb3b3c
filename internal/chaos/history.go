// History recording and the consistency checker: classify every read of a
// run, recorded or streamed, against regular-register semantics per
// protocol mode, compute the empirical ε of Theorems 3.2/4.2/5.2 and a
// PBS-style staleness-depth distribution, and test the measured ε against
// the theorem bound at a configured confidence.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"pqs/internal/combin"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/ts"
)

// OpKind distinguishes history events.
type OpKind uint8

// Operation kinds.
const (
	OpWrite OpKind = iota + 1
	OpRead
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one recorded client operation. Every field is part of the
// determinism contract: two runs from the same seed must produce equal Ops.
type Op struct {
	// Seq is the operation's global sequence number (0-based).
	Seq int `json:"seq"`
	// Time is the logical time (the write/read pair index) the operation
	// ran at; schedule events fire at pair boundaries.
	Time int    `json:"t"`
	Kind OpKind `json:"kind"`
	Key  string `json:"key"`
	// Value is the written value, or the value the read returned.
	Value string `json:"value,omitempty"`
	// Stamp is the write's assigned timestamp, or the stamp attached to the
	// value the read accepted.
	Stamp ts.Stamp `json:"stamp"`
	// Found reports a read's Found outcome (⊥ is Found == false).
	Found bool `json:"found,omitempty"`
	// Full reports whether a write was acknowledged by its entire access
	// set — the premise of the consistency theorems. Reads following a
	// non-full write are recorded and classified but excluded from the
	// bound test (see CheckResult.EligibleReads).
	Full bool `json:"full,omitempty"`
	// Quorum is the access set the strategy chose for the operation.
	Quorum []quorum.ServerID `json:"quorum,omitempty"`
	// Cell is the quorum cell the operation's key routed to (always 0 in a
	// single-cell run). Part of the determinism contract: routing is a pure
	// function of the key and the ring view, so two runs from one seed must
	// attribute every operation to the same cell.
	Cell int `json:"cell,omitempty"`
	// View is the membership-view version the operation was issued under,
	// which each departure or join bumps (sim.World.View). The timed
	// checker (CheckConfig.Timed) takes a read's churn depth D as its View
	// minus its key's latest write's. Always 0 in churn-free runs.
	View uint64 `json:"view,omitempty"`
	// Err is the operation's error text ("" on success).
	Err string `json:"err,omitempty"`
}

// equal reports whether two ops are identical, including access sets.
func (o Op) equal(p Op) bool {
	if o.Seq != p.Seq || o.Time != p.Time || o.Kind != p.Kind || o.Key != p.Key ||
		o.Value != p.Value || o.Stamp != p.Stamp || o.Found != p.Found ||
		o.Full != p.Full || o.Cell != p.Cell || o.View != p.View ||
		o.Err != p.Err || len(o.Quorum) != len(p.Quorum) {
		return false
	}
	for i := range o.Quorum {
		if o.Quorum[i] != p.Quorum[i] {
			return false
		}
	}
	return true
}

// String renders an op compactly for diffs.
func (o Op) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d t=%d %s %s", o.Seq, o.Time, o.Kind, o.Key)
	if o.Kind == OpWrite {
		fmt.Fprintf(&b, " value=%q stamp=%v full=%v", o.Value, o.Stamp, o.Full)
	} else {
		fmt.Fprintf(&b, " found=%v value=%q stamp=%v", o.Found, o.Value, o.Stamp)
	}
	fmt.Fprintf(&b, " quorum=%v", o.Quorum)
	if o.Cell != 0 {
		fmt.Fprintf(&b, " cell=%d", o.Cell)
	}
	if o.View != 0 {
		fmt.Fprintf(&b, " view=%d", o.View)
	}
	if o.Err != "" {
		fmt.Fprintf(&b, " err=%q", o.Err)
	}
	return b.String()
}

// History is the ordered record of a run's client operations.
type History []Op

// Diff returns "" when the histories are identical, and otherwise a
// description of the first divergent event (or the length mismatch),
// rendered with both sides — the output the determinism regression test
// fails with.
func (h History) Diff(other History) string {
	n := len(h)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		if !h[i].equal(other[i]) {
			return fmt.Sprintf("events diverge at index %d:\n  a: %s\n  b: %s", i, h[i], other[i])
		}
	}
	if len(h) != len(other) {
		return fmt.Sprintf("history lengths diverge: %d vs %d events (first %d equal)", len(h), len(other), n)
	}
	return ""
}

// sha256 is the hex SHA-256 of the history's canonical op lines (Op.String,
// one per line): equal exactly when Diff is empty, so two runs — or two
// commits — compare by diffing their reports.
func (h History) sha256() string {
	d := sha256.New()
	for _, op := range h {
		fmt.Fprintln(d, op)
	}
	return hex.EncodeToString(d.Sum(nil))
}

// CheckConfig parameterizes the consistency checker.
type CheckConfig struct {
	// Mode is the protocol mode the history was produced under.
	Mode register.Mode
	// Bound is the per-read failure probability the theorems allow (the ε
	// of Theorem 3.2, 4.2 or 5.2 for the system under test). 1 disables
	// the statistical test (violations are still checked).
	Bound float64
	// Cells, when > 1, additionally tests EVERY cell's empirical ε against
	// Bound (each cell is an independent instance of the same construction,
	// so the theorem bound applies per cell, not just on average): the
	// result carries a per-cell section for each cell, and a run fails when
	// ANY cell's p-value drops below DefaultAlpha — a cell blowing its budget must
	// not hide inside a passing global average.
	Cells int
	// Timed, when set, replaces the flat bound test with the timed-quorum
	// verdict: eligible reads are bucketed by churn depth D (see Op.View),
	// each bucket allowed the per-read bound min(1, Base + ε(D) - ε(0)),
	// ε(D) = combin.TimedEpsilon(N, QW, QR, D), and the total bad count is
	// tested against the sum of bucket binomials. The flat PValue is still
	// reported, but Pass follows the timed verdict (and violations and the
	// per-cell sections, which keep the flat bound).
	Timed *TimedBound
}

// TimedBound parameterizes the timed-quorum (time-decayed ε) test: the
// quorum geometry and the static per-read theorem bound it decays from.
type TimedBound struct {
	// N is the universe size and QW/QR the write/read quorum sizes of the
	// construction under test (per cell, in a multi-cell run).
	N  int `json:"n"`
	QW int `json:"qw"`
	QR int `json:"qr"`
	// Base is the static (D=0) per-read bound ε the theorems grant — the
	// same number the flat test uses. The timed test allows each depth-D
	// bucket Base plus the churn penalty TimedEpsilon(D) - TimedEpsilon(0).
	Base float64 `json:"base"`
}

// DefaultAlpha is the p-value below which a measured ε is declared to
// exceed its bound: the checker fails only when the observed bad count would
// happen less than one time in a million under the bound —
// deterministic-friendly, since a seed either fails reproducibly or passes
// reproducibly.
const DefaultAlpha = 1e-6

// CheckResult is the checker's verdict over one history.
type CheckResult struct {
	// Reads counts read operations; Correct/Stale/Fooled/Unavailable
	// partition them. A read is Correct when it returned the latest
	// completed genuine write (or ⊥ before any write), Stale when it
	// returned an older genuine pair or ⊥, Fooled when it returned a
	// value-stamp pair no writer ever produced, and Unavailable when it
	// errored.
	Reads       int `json:"reads"`
	Correct     int `json:"correct"`
	Stale       int `json:"stale"`
	Fooled      int `json:"fooled"`
	Unavailable int `json:"unavailable"`

	// Epsilon is the empirical per-read failure rate over all classified
	// reads: (Stale+Fooled) / (Correct+Stale+Fooled).
	Epsilon float64 `json:"epsilon"`

	// EligibleReads counts reads whose key's latest write attempt
	// completed with a full access set — the reads the theorems' premise
	// covers. EligibleBad counts those that were stale or fooled;
	// EligibleEpsilon is their ratio, the empirical ε tested against
	// Bound.
	EligibleReads   int     `json:"eligible_reads"`
	EligibleBad     int     `json:"eligible_bad"`
	EligibleEpsilon float64 `json:"eligible_epsilon"`

	// StaleDepth is the PBS-style staleness distribution over *genuine*
	// values: StaleDepth[d] counts stale reads that returned a value d
	// completed writes old (⊥ after w completed writes counts at depth w).
	// Depth 0 reads are Correct; fooled reads returned fabricated pairs
	// with no meaningful depth and are counted only in Fooled.
	StaleDepth map[int]int `json:"stale_depth,omitempty"`

	// Bound and PValue report the statistical test: PValue is the exact
	// binomial probability of observing at least EligibleBad failures in
	// EligibleReads reads if the true per-read failure rate were Bound.
	Bound  float64 `json:"bound"`
	PValue float64 `json:"p_value"`

	// Violations lists hard safety violations: reads that returned a
	// fabricated pair in a mode whose acceptance rule rules them out
	// entirely (benign with no Byzantine faults modeled, and
	// dissemination, where signatures must reject every forgery). Only
	// the first maxViolations are listed; Fooled counts them all.
	// Masking reads may be fooled with probability ε, so there fooled
	// reads count toward the bound instead.
	Violations []string `json:"violations,omitempty"`

	// Timed carries the timed-quorum verdict when CheckConfig.Timed is
	// set: the depth-bucketed bounds and the grouped test that decides
	// Pass for churn runs. Nil otherwise.
	Timed *TimedResult `json:"timed,omitempty"`

	// Cells carries the per-cell sections of a multi-cell run
	// (CheckConfig.Cells > 1): the same eligibility accounting and binomial
	// test computed over each cell's own reads, against the same per-cell
	// Bound. Nil for single-cell histories.
	Cells []CellResult `json:"cells,omitempty"`

	// Pass is the overall verdict: no violations, the measured global ε is
	// statistically consistent with Bound (PValue >= DefaultAlpha), and — in a
	// multi-cell run — every per-cell section passes too.
	Pass bool `json:"pass"`
}

// CellResult is one cell's slice of a multi-cell consistency verdict.
type CellResult struct {
	// Cell is the cell index the section covers.
	Cell int `json:"cell"`
	// Reads counts the cell's read operations; Eligible* mirror the global
	// accounting restricted to this cell's keys.
	Reads           int     `json:"reads"`
	EligibleReads   int     `json:"eligible_reads"`
	EligibleBad     int     `json:"eligible_bad"`
	EligibleEpsilon float64 `json:"eligible_epsilon"`
	// Bound and PValue report the cell's own binomial test; Pass its
	// verdict (PValue >= DefaultAlpha).
	Bound  float64 `json:"bound"`
	PValue float64 `json:"p_value"`
	Pass   bool    `json:"pass"`
}

// writeRec is one write attempt as seen by the checker.
type writeRec struct {
	value     string
	stamp     ts.Stamp
	completed bool // the write returned success
	full      bool // every access-set member acknowledged
}

// maxViolations caps the violations a check lists: one names the fault, and
// a population-scale run would otherwise hold one string per fooled read.
const maxViolations = 16

// keyRec is what the checker knows of one key: its write attempts in issue
// order, how many of them completed, and the view of the latest attempt.
type keyRec struct {
	writes    []writeRec
	completed int
	view      uint64
}

// Checker is the consistency checker as a stream: Add classifies each op
// against the writes Added before it, and Result tests the empirical ε
// against cfg.Bound at confidence DefaultAlpha. Every run feeds one as it
// runs, through a Recorder, so the load generator judges population-scale
// runs without recording them.
type Checker struct {
	cfg   CheckConfig
	res   CheckResult
	keys  map[string]*keyRec
	timed map[int]*TimedGroup // eligible reads by churn depth, when cfg.Timed
	cells []CellResult        // per-cell sections, when cfg.Cells > 1
}

// NewChecker returns a checker with no ops added.
func NewChecker(cfg CheckConfig) *Checker {
	if cfg.Bound == 0 {
		cfg.Bound = 1
	}
	c := &Checker{
		cfg:  cfg,
		res:  CheckResult{StaleDepth: make(map[int]int), Bound: cfg.Bound},
		keys: make(map[string]*keyRec),
	}
	if cfg.Timed != nil {
		c.timed = make(map[int]*TimedGroup)
	}
	if cfg.Cells > 1 {
		c.cells = make([]CellResult, cfg.Cells)
		for i := range c.cells {
			c.cells[i] = CellResult{Cell: i, Bound: cfg.Bound}
		}
	}
	return c
}

// Add records a write or classifies a read. Ops must arrive in the order
// they were issued.
func (c *Checker) Add(op Op) {
	k := c.keys[op.Key]
	if k == nil {
		k = &keyRec{}
		c.keys[op.Key] = k
	}
	switch op.Kind {
	case OpWrite:
		rec := writeRec{value: op.Value, stamp: op.Stamp, completed: op.Err == "", full: op.Err == "" && op.Full}
		k.writes = append(k.writes, rec)
		if rec.completed {
			k.completed++
		}
		k.view = op.View
	case OpRead:
		c.read(op, k)
	}
}

func (c *Checker) read(op Op, k *keyRec) {
	res := &c.res
	res.Reads++
	// A malformed history's out-of-range cell id drops the attribution
	// rather than panicking mid-check.
	var cell *CellResult
	if op.Cell >= 0 && op.Cell < len(c.cells) {
		cell = &c.cells[op.Cell]
		cell.Reads++
	}
	class, depth := classifyRead(op, k.writes, k.completed)
	switch class {
	case readUnavailable:
		res.Unavailable++
		return // errored reads carry no consistency verdict
	case readCorrect:
		res.Correct++
	case readStale:
		res.Stale++
		res.StaleDepth[depth]++
	case readFooled:
		res.Fooled++
		if c.cfg.Mode != register.Masking && len(res.Violations) < maxViolations {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"op #%d: %s mode read of %q returned fabricated pair (%q, %v)",
				op.Seq, c.cfg.Mode, op.Key, op.Value, op.Stamp))
		}
	}
	// Reads before any write trivially satisfy the theorems' premise.
	if n := len(k.writes); n > 0 && !k.writes[n-1].full {
		return
	}
	bad := class != readCorrect
	res.EligibleReads++
	if cell != nil {
		cell.EligibleReads++
	}
	if bad {
		res.EligibleBad++
		if cell != nil {
			cell.EligibleBad++
		}
	}
	if c.timed != nil {
		d := 0
		if op.View > k.view {
			d = int(op.View - k.view)
		}
		g := c.timed[d]
		if g == nil {
			g = &TimedGroup{Departures: d}
			c.timed[d] = g
		}
		g.Reads++
		if bad {
			g.Bad++
		}
	}
}

// Result is the verdict over the ops added so far.
func (c *Checker) Result() CheckResult {
	res := c.res
	if cl := res.Correct + res.Stale + res.Fooled; cl > 0 {
		res.Epsilon = float64(res.Stale+res.Fooled) / float64(cl)
	}
	res.EligibleEpsilon, res.PValue = binomialTest(res.EligibleReads, res.EligibleBad, c.cfg.Bound)
	res.Pass = len(res.Violations) == 0 && res.PValue >= DefaultAlpha
	if c.cfg.Timed != nil {
		gs := make([]TimedGroup, 0, len(c.timed))
		for _, g := range c.timed {
			gs = append(gs, *g)
		}
		res.Timed = evaluateTimed(gs, *c.cfg.Timed)
		// Under churn the flat bound is the wrong null hypothesis — the
		// timed verdict replaces it (violations and per-cell sections still
		// veto below).
		res.Pass = len(res.Violations) == 0 && res.Timed.Pass
	}
	if c.cells != nil {
		res.Cells = make([]CellResult, len(c.cells))
		for i, cell := range c.cells {
			cell.EligibleEpsilon, cell.PValue = binomialTest(cell.EligibleReads, cell.EligibleBad, c.cfg.Bound)
			cell.Pass = cell.PValue >= DefaultAlpha
			res.Pass = res.Pass && cell.Pass
			res.Cells[i] = cell
		}
	}
	return res
}

// binomialTest is the flat bound test of bad failures in reads: their ratio,
// and the probability of at least that many if each read failed with
// probability bound (1 when bound is 1, which disables the test).
func binomialTest(reads, bad int, bound float64) (eps, p float64) {
	if reads > 0 {
		eps = float64(bad) / float64(reads)
	}
	p = 1
	if bad > 0 && bound < 1 {
		p = combin.BinomialTailGE(reads, bound, bad)
	}
	return eps, p
}

// TimedGroup is one churn-depth bucket of the timed-quorum test: Reads
// eligible reads issued D membership departures after their key's latest
// write, of which Bad were stale or fooled, allowed the per-read bound
// Bound (filled in by the timed test).
type TimedGroup struct {
	Departures int     `json:"departures"`
	Reads      int     `json:"reads"`
	Bad        int     `json:"bad"`
	Bound      float64 `json:"bound"`
}

// TimedResult is the timed-quorum verdict: depth-bucketed bounds and the
// grouped statistical test over the total bad count.
type TimedResult struct {
	// Groups are the depth buckets in increasing Departures order, bounds
	// filled.
	Groups []TimedGroup `json:"groups"`
	// MaxBound is the largest per-read bound any bucket was allowed — how
	// far churn stretched the budget beyond Base.
	MaxBound float64 `json:"max_bound"`
	// PValue is P(total bad ≥ observed) under the null hypothesis that each
	// bucket fails at exactly its bound (combin.GroupedBinomialTailGE).
	PValue float64 `json:"p_value"`
	// Pass is PValue >= DefaultAlpha.
	Pass bool `json:"pass"`
}

// evaluateTimed computes each bucket's time-decayed bound and tests the
// total bad count against the sum of bucket binomials at confidence
// DefaultAlpha. Buckets arrive with Departures/Reads/Bad set; the
// input slice is sorted and its bounds filled in place.
func evaluateTimed(groups []TimedGroup, tb TimedBound) *TimedResult {
	sort.Slice(groups, func(i, j int) bool { return groups[i].Departures < groups[j].Departures })
	base0 := combin.TimedEpsilon(tb.N, tb.QW, tb.QR, 0)
	res := &TimedResult{Groups: groups, PValue: 1}
	ms := make([]int, len(groups))
	ps := make([]float64, len(groups))
	totalBad := 0
	for i := range groups {
		g := &groups[i]
		d := g.Departures
		if d > tb.N {
			d = tb.N
		}
		bound := tb.Base + combin.TimedEpsilon(tb.N, tb.QW, tb.QR, d) - base0
		if bound > 1 {
			bound = 1
		}
		g.Bound = bound
		if bound > res.MaxBound {
			res.MaxBound = bound
		}
		ms[i] = g.Reads
		ps[i] = bound
		totalBad += g.Bad
	}
	if totalBad > 0 {
		res.PValue = combin.GroupedBinomialTailGE(ms, ps, totalBad)
	}
	res.Pass = res.PValue >= DefaultAlpha
	return res
}

// read classifications.
type readClass int

const (
	readCorrect readClass = iota
	readStale
	readFooled
	readUnavailable
)

// classifyRead matches a read against the write record of its key. depth is
// the number of completed writes newer than what the read returned.
func classifyRead(op Op, ws []writeRec, completedCount int) (readClass, int) {
	if op.Err != "" {
		return readUnavailable, 0
	}
	if !op.Found {
		if completedCount == 0 {
			return readCorrect, 0
		}
		return readStale, completedCount
	}
	// Genuine iff the exact (value, stamp) pair was produced by a write
	// attempt (completed or not: a failed write may still have reached some
	// members, so reading it back is staleness, not fabrication).
	newerCompleted := completedCount
	for _, w := range ws {
		if w.completed {
			newerCompleted--
		}
		if w.value == op.Value && w.stamp == op.Stamp {
			if w.completed && newerCompleted == 0 {
				return readCorrect, 0
			}
			depth := newerCompleted
			if depth < 1 {
				depth = 1 // an uncompleted latest write read back: one behind the last completed state
			}
			return readStale, depth
		}
	}
	return readFooled, completedCount + 1
}
