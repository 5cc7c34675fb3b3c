package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/chaos"
	"pqs/internal/load"
)

// fakeRow is a chaos row whose n-th run (0-based) reports what report(n)
// returns, after sleeping delay.
func fakeRow(expectFail bool, delay time.Duration, report func(n int) chaos.Report) row {
	var runs atomic.Int32
	return row{name: "fake", expectFail: expectFail, run: func(string) (outcome, error) {
		time.Sleep(delay)
		rep := report(int(runs.Add(1) - 1))
		return chaosOutcome(&rep), nil
	}}
}

func passing(name string) chaos.Report {
	return chaos.Report{
		Name: name, Transport: "mem", Check: chaos.CheckResult{Pass: true},
		History: chaos.History{{Kind: chaos.OpWrite, Key: "k0", Value: "v0"}},
	}
}

// decoded is the part of the JSON report the tests read.
type decoded struct {
	Scenarios []struct {
		Name          string `json:"name"`
		Expected      string `json:"expected"`
		Deterministic *bool  `json:"deterministic"`
	} `json:"scenarios"`
	AllPass bool `json:"all_pass"`
}

// runRows runs the matrix loop over rows and returns its exit code and
// JSON report.
func runRows(t *testing.T, rows []row, o options) (int, decoded) {
	t.Helper()
	o.out = filepath.Join(t.TempDir(), "report.json")
	code := runMatrix(matrixReport{Seed: 1, Scale: 1}, rows, o)
	raw, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	var doc decoded
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("report does not decode: %v\n%s", err, raw)
	}
	return code, doc
}

// TestRowsComeBackInMatrixOrder: on a pool of two, later rows finish first,
// yet the report lists them in matrix order.
func TestRowsComeBackInMatrixOrder(t *testing.T) {
	names := []string{"r0", "r1", "r2", "r3", "r4"}
	var rows []row
	for i, name := range names {
		delay := time.Duration(len(names)-i) * 10 * time.Millisecond
		rows = append(rows, fakeRow(false, delay, func(int) chaos.Report { return passing(name) }))
	}
	code, doc := runRows(t, rows, options{parallel: 2, verifyDet: true})
	if code != 0 || !doc.AllPass {
		t.Fatalf("exit %d, all_pass %v: want 0, true", code, doc.AllPass)
	}
	if len(doc.Scenarios) != len(names) {
		t.Fatalf("%d rows reported, want %d", len(doc.Scenarios), len(names))
	}
	for i, sc := range doc.Scenarios {
		if sc.Name != names[i] {
			t.Errorf("row %d is %s, want %s", i, sc.Name, names[i])
		}
		if sc.Deterministic == nil || !*sc.Deterministic {
			t.Errorf("row %s: deterministic %v, want true", sc.Name, sc.Deterministic)
		}
	}
}

// TestReplayDifferingInSimSecondsIsNondeterministic: a replay with an equal
// history but another sim_seconds fails -verify-determinism.
func TestReplayDifferingInSimSecondsIsNondeterministic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		replay float64
		code   int
	}{
		{"equal", 1.5, 0},
		{"differs", 1.25, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			replayed := fakeRow(false, 0, func(n int) chaos.Report {
				rep := passing("replayed")
				rep.SimSeconds = 1.5
				if n == 1 {
					rep.SimSeconds = tc.replay
				}
				return rep
			})
			code, doc := runRows(t, []row{replayed}, options{parallel: 1, verifyDet: true})
			if code != tc.code {
				t.Fatalf("exit %d, want %d", code, tc.code)
			}
			det := doc.Scenarios[0].Deterministic
			if det == nil || *det != (tc.code == 0) || doc.AllPass != (tc.code == 0) {
				t.Fatalf("deterministic %v, all_pass %v", det, doc.AllPass)
			}
		})
	}
}

// TestExpectedFailureThatPassesFails: a negative row exists to show the
// checker has teeth, so it passing fails the invocation; it failing does
// not, and it is never replayed.
func TestExpectedFailureThatPassesFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		pass bool
		code int
	}{
		{"fails", false, 0},
		{"passes", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			neg := fakeRow(true, 0, func(n int) chaos.Report {
				if n > 0 {
					t.Errorf("the negative row ran %d times", n+1)
				}
				rep := passing("negative")
				rep.Check.Pass = tc.pass
				return rep
			})
			code, doc := runRows(t, []row{fakeRow(false, 0, func(int) chaos.Report { return passing("shipped") }), neg},
				options{parallel: 2, verifyDet: true})
			if code != tc.code {
				t.Fatalf("exit %d, want %d", code, tc.code)
			}
			if sc := doc.Scenarios[1]; sc.Expected != "fail" || sc.Deterministic != nil {
				t.Fatalf("negative row reported expected %q, deterministic %v", sc.Expected, sc.Deterministic)
			}
		})
	}
}

// TestTimedVerdictIsTheOneReported: a row whose verdict is timed — a chaos
// row as much as a load row — prints the timed p-value that decided Pass,
// not the flat one, and records the timed verdict in the trend document.
func TestTimedVerdictIsTheOneReported(t *testing.T) {
	c := chaos.CheckResult{
		EligibleReads: 150, EligibleBad: 3, Bound: 1e-3, PValue: 4e-7,
		StaleDepth: map[int]int{2: 3},
		Timed:      &chaos.TimedResult{Groups: make([]chaos.TimedGroup, 2), MaxBound: 0.03, PValue: 0.25, Pass: true},
		Pass:       true,
	}
	for _, o := range []outcome{
		chaosOutcome(&chaos.Report{Name: "chaos", Check: c}),
		loadOutcome(&load.Result{Name: "load", CheckResult: c}),
	} {
		if s := verdictSummary(o.check); !strings.Contains(s, "timed p=0.25 ") {
			t.Errorf("%s: summary %q does not lead with the deciding timed p", o.name, s)
		}
		m := rowMetrics(o, 1)
		want := map[string]float64{"p_value": 4e-7, "timed_p_value": 0.25, "timed_max_bound": 0.03,
			"timed_pass": 1, "timed_depth_buckets": 2, "stale_depth_2": 3}
		for k, v := range want {
			if m[k] != v {
				t.Errorf("%s: metric %s = %v, want %v", o.name, k, m[k], v)
			}
		}
	}
}
