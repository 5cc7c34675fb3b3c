package main

import "fmt"

// metricDef names a metric and its unit. The two tables below are the
// benchmark's whole vocabulary: BENCHMARK.json lists exactly these names
// (bench_test.go checks it), every workload emits every one of them, and a
// run that tries to emit any other name fails. A metric that does not
// apply to a workload (frames on the mem plane, load.* on wall-clock
// workloads) is emitted as 0.
type metricDef struct {
	name, unit string
	// End-to-end metrics only: the direction that is better, and the share
	// of the parent's value by which the metric may worsen before it counts
	// as a regression (-compare applies it; BENCHMARK.json repeats it).
	higherBetter bool
	bound        float64
}

// endToEnd are what a user of the library sees. Bounds live in
// BENCHMARK.json. fail_share is carried by the result's attempted/failed
// counts instead of a metric, because it is 0 on every workload and a
// bound on 0 is meaningless.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "ops/s", higherBetter: true, bound: 0.25},
	{name: "read_p50_us", unit: "us", higherBetter: false, bound: 0.25},
	{name: "write_p50_us", unit: "us", higherBetter: false, bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", higherBetter: false, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", higherBetter: false, bound: 0.25},
	{name: "setup_s", unit: "s", higherBetter: false, bound: 0.25},
}

// perLayer are measured by the traced run (-trace 1). layer.metric: the
// layer is the module name.
var perLayer = []metricDef{
	{name: "quorum.pick_ns", unit: "ns"},
	{name: "quorum.pick_cold_ns", unit: "ns"},
	{name: "quorum.load_skew", unit: "ratio"},
	{name: "register.self_us_per_op", unit: "us"},
	{name: "register.rpc_union_us_per_op", unit: "us"},
	{name: "register.dispatch_skew_us", unit: "us"},
	{name: "register.gather_tail_us", unit: "us"},
	{name: "register.rpcs_per_op", unit: "count"},
	{name: "register.late_reply_share", unit: "ratio"},
	{name: "register.stale_read_share", unit: "ratio"},
	{name: "register.eps_exact", unit: "ratio"},
	{name: "wire.encode_ns", unit: "ns"},
	{name: "wire.decode_ns", unit: "ns"},
	{name: "wire.bytes_per_op", unit: "bytes"},
	{name: "transport.rpc_us_p50", unit: "us"},
	{name: "transport.rpc_us_p99", unit: "us"},
	{name: "transport.rpc_overhead_us", unit: "us"},
	{name: "transport.frames_per_op", unit: "count"},
	{name: "transport.flushes_per_op", unit: "count"},
	{name: "transport.coalesced_share", unit: "ratio"},
	{name: "replica.handle_us_mean", unit: "us"},
	{name: "replica.handles_per_op", unit: "count"},
	{name: "replica.store_apply_ns", unit: "ns"},
	{name: "replica.store_get_ns", unit: "ns"},
	{name: "sv.sign_us", unit: "us"},
	{name: "sv.verify_us", unit: "us"},
	{name: "vtime.timer_ns", unit: "ns"},
	{name: "vtime.sim_speedup", unit: "ratio"},
	{name: "load.virt_p50_ms", unit: "ms"},
	{name: "load.virt_p99_ms", unit: "ms"},
	{name: "load.eps_empirical", unit: "ratio"},
	{name: "load.eps_bound", unit: "ratio"},
	{name: "load.sim_seconds", unit: "s"},
	{name: "proc.allocs_per_op", unit: "count"},
	{name: "proc.alloc_bytes_per_op", unit: "bytes"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "quorum.cpu_share", unit: "ratio"},
	{name: "register.cpu_share", unit: "ratio"},
	{name: "wire.cpu_share", unit: "ratio"},
	{name: "transport.cpu_share", unit: "ratio"},
	{name: "replica.cpu_share", unit: "ratio"},
	{name: "sv.cpu_share", unit: "ratio"},
	{name: "ts.cpu_share", unit: "ratio"},
	{name: "vtime.cpu_share", unit: "ratio"},
	{name: "load.cpu_share", unit: "ratio"},
	{name: "chaos.cpu_share", unit: "ratio"},
	{name: "sim.cpu_share", unit: "ratio"},
	{name: "core.cpu_share", unit: "ratio"},
	{name: "bench.cpu_share", unit: "ratio"},
	{name: "other.cpu_share", unit: "ratio"},
	{name: "proc.sched_cpu_share", unit: "ratio"},
	{name: "proc.cpu_samples", unit: "count"},
	{name: "client.op_mean_us", unit: "us"},
	{name: "client.read_p99_us", unit: "us"},
	{name: "client.write_p99_us", unit: "us"},
	{name: "client.samples", unit: "count"},
	{name: "client.fail_share", unit: "ratio"},
	{name: "client.trace_overhead_share", unit: "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems says why Correct is false; it goes to standard error.
	problems []string
	// samples are the sample counts behind the medians, plus the unscaled
	// throughput and the host slowness the run saw, for the header.
	samples map[string]float64
}

// newResult returns a result holding every metric of defs at 0.
func newResult(defs []metricDef) *result {
	r := &result{Correct: true, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}

// set records a value under a declared name.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared in metrics.go", name))
	}
	m.Value = v
	r.Metrics[name] = m
}

// fail marks the run incorrect.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}
