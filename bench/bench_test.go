package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The smoke test runs every workload at a tiny size. It asserts what is
// emitted and that the checks have teeth; it asserts nothing about timing.

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestTablesMatchBenchmarkJSON pins metrics.go and workloads.go to the
// contract file: same names in the same order, same units, same bounds.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	bm := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in workloads.go", i, w.Name, workloads[i].name)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, metrics.go %d", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range bm.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound || (m.Better == "higher") != d.higherBetter {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in metrics.go", i, m, d)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.go %d", len(bm.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bm.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in metrics.go", i, m, perLayer[i])
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
	}
}

// smokeSized returns the workload at smoke size: same plane, system and
// mix, fewer keys so set-up is a few milliseconds.
func smokeSized(w workload) workload {
	if w.plane != planeSim {
		w.keys = 64
	}
	return w
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		w := smokeSized(wl)
		for _, traced := range []bool{false, true} {
			defs, label := endToEnd, w.name+"/untraced"
			if traced {
				defs, label = perLayer, w.name+"/traced"
			}
			t.Run(label, func(t *testing.T) {
				r, err := w.run(options{seed: 7, seconds: 0.3, trace: traced, out: t.TempDir(), small: true})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", r.Correct, r.Attempted, r.Failed, r.problems)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", d.name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", d.name, m.Value)
					}
				}
				if !traced {
					return
				}
				sum := 0.0
				for name, m := range r.Metrics {
					if strings.HasSuffix(name, "cpu_share") {
						sum += m.Value
					}
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("cpu shares sum to %v, want 1", sum)
				}
				if w.plane != planeSim {
					// The spans account for the op: self + union of rpcs = op.
					self, union, op := r.Metrics["register.self_us_per_op"].Value, r.Metrics["register.rpc_union_us_per_op"].Value, r.Metrics["client.op_mean_us"].Value
					if op <= 0 || math.Abs(self+union-op) > 1e-6*op {
						t.Errorf("self %v + rpc union %v != op mean %v", self, union, op)
					}
					if got, want := r.Metrics["register.rpcs_per_op"].Value, r.Metrics["replica.handles_per_op"].Value; got != want || got < 1 {
						t.Errorf("rpcs per op %v, handles per op %v", got, want)
					}
				}
			})
		}
	}
}

// TestOracleTripsOnInjectedWrongValue turns three replicas of a benign
// system into forgers. Benign reads take the highest timestamp, so they
// return the forged value, and the run must come back incorrect.
func TestOracleTripsOnInjectedWrongValue(t *testing.T) {
	w, err := findWorkload("mem-fanout")
	if err != nil {
		t.Fatal(err)
	}
	poisoned := smokeSized(*w)
	poisoned.forgers = 3
	r, err := poisoned.run(options{seed: 7, seconds: 0.3, small: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || !strings.Contains(strings.Join(r.problems, "\n"), "forged value") {
		t.Fatalf("run with forgers in a benign system: correct=%v problems=%v", r.Correct, r.problems)
	}
}

func TestOracleRejectsDamagedValues(t *testing.T) {
	o := newOracle(4, 36, 1)
	val := make([]byte, 36)
	o.encode(val, 2, 9)
	if v, err := o.decode(val, 2); err != nil || v != 9 {
		t.Fatalf("decode of a good value: %d, %v", v, err)
	}
	if _, err := o.decode(val, 3); err == nil {
		t.Error("value of key 2 accepted for key 3")
	}
	val[20] ^= 1
	if _, err := o.decode(val, 2); err == nil {
		t.Error("value with a flipped bit accepted")
	}
	if _, err := o.decode(o.forged, 0); err == nil {
		t.Error("forged value accepted")
	}
	if err := checkStale(100000, 120, 1e-3); err != nil {
		t.Errorf("120 stale of 100000 at eps=1e-3 rejected: %v", err)
	}
	if err := checkStale(1000, 50, 1e-3); err == nil {
		t.Error("50 stale of 1000 at eps=1e-3 accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pqs/internal/transport.(*TCPClient).Call": "transport",
		"pqs/internal/wire.AppendEnvelope":         "wire",
		"pqs/internal/ring.(*Ring).Lookup":         "other",
		"pqs.NewClient":                            "other",
		"main.(*worker).loop":                      "bench",
		"runtime.mallocgc":                         "",
		"crypto/ed25519.Verify":                    "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if !math.IsNaN(spread([]float64{1})) {
		t.Error("spread of one value must be NaN")
	}
}

func TestCompareVerdicts(t *testing.T) {
	// doc builds a document whose every metric is base on every workload,
	// except ops_per_s on tcp-small, which takes the given runs.
	doc := func(opsRuns ...float64) string {
		d := document{Workloads: map[string]*history{}}
		for _, w := range workloads {
			h := &history{}
			for _, ops := range opsRuns {
				r := newResult(endToEnd)
				r.Attempted = 1000
				for _, def := range endToEnd {
					r.set(def.name, 100)
				}
				if w.name == "tcp-small" {
					r.set("ops_per_s", ops)
				}
				h.EndToEnd = append(h.EndToEnd, entry{result: *r})
			}
			d.Workloads[w.name] = h
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	verdict := func(a, b string) (string, error) {
		var out bytes.Buffer
		err := compareFiles(a, b, &out)
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "tcp-small") && strings.Contains(line, "ops_per_s") {
				f := strings.Fields(line)
				return f[len(f)-1], err
			}
		}
		t.Fatalf("no tcp-small ops_per_s row in:\n%s", out.String())
		return "", err
	}
	// ops_per_s is bounded at 25%.
	steady := doc(100, 101, 99, 100)
	if v, err := verdict(steady, doc(95, 96, 94, 95)); v != "unchanged" || err != nil {
		t.Errorf("5%% lower: %s, %v", v, err)
	}
	if v, err := verdict(steady, doc(60, 61, 59, 60)); v != "regressed" || err == nil {
		t.Errorf("40%% lower: %s, %v", v, err)
	}
	if v, err := verdict(steady, doc(150, 151, 149, 150)); v != "better" || err != nil {
		t.Errorf("50%% higher: %s, %v", v, err)
	}
	if v, err := verdict(steady, doc(60, 140, 80, 120)); v != "unresolved" || err != nil {
		t.Errorf("same median, 60%% spread: %s, %v", v, err)
	}
}

func TestUndisturbedKeepsQuietIntervals(t *testing.T) {
	xs := []timed{{1, false}, {9, true}, {2, false}, {3, false}}
	if got := undisturbed(xs, timed.disturbed, 3); len(got) != 3 {
		t.Errorf("3 quiet of 4 with atLeast 3: kept %d", len(got))
	}
	if got := undisturbed(xs, timed.disturbed, 4); len(got) != 4 {
		t.Errorf("3 quiet of 4 with atLeast 4: kept %d, want all", len(got))
	}
}
