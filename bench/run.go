package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"pqs"
	"pqs/internal/load"
)

// options are one run's knobs.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for span files and profiles; "" writes none
	small   bool   // smoke-test sizes (bench_test.go)
}

const (
	// A run sets its system up at least minSetups times, and goes on (to
	// maxSetups) until setupBudget is spent, so that a 20ms set-up is timed
	// often enough for its median to hold still. setup_s is the median,
	// which also keeps the process's cold start out of it.
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 750 * time.Millisecond
	// slicesPerWindow splits the measured window; the end-to-end numbers
	// are medians over the slices.
	slicesPerWindow = 20
	// maxTracedOps bounds the span buffers of a traced window; tracedPairs
	// is how many (tracing off, tracing on) slice pairs it alternates, each
	// slice 1/(4*tracedPairs) of -seconds, fewer when the buffers fill.
	maxTracedOps = 50000
	tracedPairs  = 10
)

// numWorkers is W of the load model: min(nproc, 4) closed-loop callers.
func numWorkers() int { return min(runtime.NumCPU(), 4) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// run measures one workload once.
func (w *workload) run(o options) (*result, error) {
	if o.trace && w.plane != planeSim {
		return w.traceWall(o)
	}
	// The calibration keeps as many CPUs busy as the workload does: the W
	// closed-loop callers, or the one goroutine a SimClock lets run.
	busy := numWorkers()
	if w.plane == planeSim {
		busy = 1
	}
	hp, err := newHostProbe(w.calib, busy)
	if err != nil {
		return nil, err
	}
	defer hp.close()
	sc := &scaler{hp: hp}
	switch {
	case w.plane != planeSim:
		return w.runWall(o, sc)
	case o.trace:
		return w.traceSim(o, sc)
	}
	return w.runSim(o, sc)
}

// scaler brackets measured intervals with calibration bursts (calib.go).
// begin runs the burst before an interval; end runs the one after it and
// returns the host's slowness over the interval, the mean of the two, and
// whether the hypervisor took CPU time from the box meanwhile. Back-to-back
// intervals need no begin of their own: end's burst serves.
type scaler struct {
	hp     *hostProbe
	last   float64
	since  time.Time
	steal0 float64
	// seen collects every factor handed out, for the run's header.
	seen []float64
}

func (sc *scaler) begin() {
	sc.last = sc.hp.slowness()
	sc.since, sc.steal0 = time.Now(), stealSeconds()
}

// stolenShare is how much of the box's CPU time the hypervisor may take
// during an interval before the interval counts as disturbed. The bursts
// cannot see a descheduled vCPU: it halves a round without slowing them.
const stolenShare = 0.02

func (sc *scaler) end() (slowness float64, stolen bool) {
	cur := sc.hp.slowness()
	now, steal := time.Now(), stealSeconds()
	slowness = (sc.last + cur) / 2
	stolen = steal-sc.steal0 > stolenShare*now.Sub(sc.since).Seconds()*float64(runtime.NumCPU())
	sc.last, sc.since, sc.steal0 = cur, now, steal
	sc.seen = append(sc.seen, slowness)
	return slowness, stolen
}

// undisturbed returns the intervals the hypervisor left alone, or all of
// them when fewer than atLeast were: a wholly disturbed run still reports.
func undisturbed[T any](all []T, stolen func(T) bool, atLeast int) []T {
	var quiet []T
	for _, x := range all {
		if !stolen(x) {
			quiet = append(quiet, x)
		}
	}
	if len(quiet) < atLeast {
		return all
	}
	return quiet
}

// timed is one timed interval's seconds at the reference host speed.
type timed struct {
	seconds float64
	stolen  bool
}

func (t timed) disturbed() bool { return t.stolen }

// timeSetups times setup repeatedly (see minSetups) and returns each
// run's seconds at the reference host speed. discard, when non-nil, tears
// the previous set-up down, untimed; the last one is left standing. Each
// set-up starts from a collected heap, so that one's garbage is not the
// next one's GC cycle.
func timeSetups(sc *scaler, small bool, setup func() error, discard func()) ([]float64, error) {
	budget := setupBudget
	if small {
		budget = 0
	}
	var took []timed
	for begun := time.Now(); len(took) < minSetups || (len(took) < maxSetups && time.Since(begun) < budget); {
		if discard != nil && len(took) > 0 {
			discard()
		}
		runtime.GC()
		sc.begin()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		slowness, stolen := sc.end()
		took = append(took, timed{elapsed / slowness, stolen})
	}
	var secs []float64
	for _, t := range undisturbed(took, timed.disturbed, minSetups) {
		secs = append(secs, t.seconds)
	}
	return secs, nil
}

// judge folds a generator's oracle verdicts into r.
func (r *result) judge(g *generator, eps float64) (reads, stale int) {
	attempted, failed, reads, stale, hard := g.totals()
	r.Attempted += attempted
	r.Failed += failed
	if hard != nil {
		r.fail("wrong value: %v", hard)
	}
	if failed > 0 {
		r.fail("%d of %d operations returned an error", failed, attempted)
	}
	if err := checkStale(reads, stale, eps); err != nil {
		r.fail("%v", err)
	}
	return reads, stale
}

// runWall is the untraced wall-clock run: the end-to-end metrics. Every
// time-based metric is the median over the window's slices of the slice's
// value at the reference host speed.
func (w *workload) runWall(o options, sc *scaler) (*result, error) {
	r := newResult(endToEnd)
	var c *cluster
	setups, err := timeSetups(sc, o.small, func() (err error) {
		c, err = w.setup(o.seed, nil)
		return err
	}, func() { c.close() })
	if err != nil {
		return nil, err
	}
	defer c.close()

	g := newGenerator(w, c, numWorkers(), o.seed, nil)
	window := seconds(o.seconds)
	g.run(window/10, false, 0)
	type scaled struct {
		rate, raw, cpu, readP50, writeP50 float64
		stolen                            bool
	}
	var slices []scaled
	reads, writes := 0, 0
	sc.begin()
	for i := 0; i < slicesPerWindow; i++ {
		sl := g.run(window/slicesPerWindow, true, 0)
		f, stolen := sc.end()
		if sl.ops == 0 {
			continue
		}
		raw := float64(sl.ops) / sl.seconds
		slices = append(slices, scaled{
			rate: raw * f, raw: raw, cpu: sl.cpu * 1e6 / float64(sl.ops) / f,
			readP50: quantile(sl.readUs, 0.5) / f, writeP50: quantile(sl.writeUs, 0.5) / f,
			stolen: stolen,
		})
		reads += len(sl.readUs)
		writes += len(sl.writeUs)
	}
	r.judge(g, c.sys.Epsilon())
	quiet := undisturbed(slices, func(s scaled) bool { return s.stolen }, slicesPerWindow/3)
	over := func(field func(scaled) float64) float64 {
		xs := make([]float64, len(quiet))
		for i, s := range quiet {
			xs[i] = field(s)
		}
		return median(xs)
	}
	r.set("ops_per_s", over(func(s scaled) float64 { return s.rate }))
	r.set("cpu_us_per_op", over(func(s scaled) float64 { return s.cpu }))
	r.set("read_p50_us", over(func(s scaled) float64 { return s.readP50 }))
	r.set("write_p50_us", over(func(s scaled) float64 { return s.writeP50 }))
	r.set("peak_rss_mb", peakRSSMB())
	r.set("setup_s", median(setups))
	r.samples = map[string]float64{
		"reads": float64(reads), "writes": float64(writes), "slices": float64(len(slices)), "quiet_slices": float64(len(quiet)),
		"setups": float64(len(setups)), "raw_ops_per_s": over(func(s scaled) float64 { return s.raw }), "host_slowness": median(sc.seen),
	}
	return r, nil
}

// traceWall is the traced wall-clock run: the per-layer metrics, as
// measured (not scaled to the reference host speed). The system is set up
// with the span decorators installed, and the window alternates short
// slices with tracing off and on, so that the overhead share compares
// neighbours in time instead of two windows seconds apart. A CPU profile
// runs over the whole window; the isolated probes follow it.
func (w *workload) traceWall(o options) (*result, error) {
	r := newResult(perLayer)
	nw := numWorkers()
	window := seconds(o.seconds)
	maxOps := maxTracedOps
	if o.small {
		maxOps = 2000
	}
	sys, err := pqs.New(w.sys)
	if err != nil {
		return nil, err
	}
	tr := newTracer(nw, maxOps, sys.QuorumSize(), sys.N())
	c, err := w.setup(o.seed, tr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	g := newGenerator(w, c, nw, o.seed, tr)
	g.run(window/10, false, 0)

	var ms0, ms1 runtime.MemStats
	var profile bytes.Buffer
	cli0, srv0 := c.tcpStats()
	late0 := c.client.Stats().LateReplies
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return nil, err
	}
	var offRate, onRate, offReads, offWrites []float64
	ops := 0.0
	for i := 0; i < tracedPairs && tr.room() > 0; i++ {
		off := g.run(window/(4*tracedPairs), true, 0)
		tr.handles.Store(true)
		on := g.run(window/(4*tracedPairs), true, tr.room())
		tr.handles.Store(false)
		if off.ops == 0 || on.ops == 0 {
			continue
		}
		ops += float64(off.ops + on.ops)
		offRate = append(offRate, float64(off.ops)/off.seconds)
		onRate = append(onRate, float64(on.ops)/on.seconds)
		offReads = append(offReads, off.readUs...)
		offWrites = append(offWrites, off.writeUs...)
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if len(onRate) == 0 {
		return nil, fmt.Errorf("workload %s: the traced window completed no operation", w.name)
	}
	cli1, srv1 := c.tcpStats()
	late := c.client.Stats().LateReplies - late0
	reads, stale := r.judge(g, sys.Epsilon())
	sort.Float64s(offReads)
	sort.Float64s(offWrites)
	r.set("client.read_p99_us", quantile(offReads, 0.99))
	r.set("client.write_p99_us", quantile(offWrites, 0.99))

	st := tr.analyse(sys.Load())
	r.samples = map[string]float64{
		"untraced_reads": float64(len(offReads)), "untraced_writes": float64(len(offWrites)),
		"traced_ops": float64(st.ops), "slice_pairs": float64(len(onRate)),
	}
	r.set("client.op_mean_us", st.opMeanUs)
	r.set("client.samples", float64(st.ops))
	r.set("client.fail_share", float64(r.Failed)/float64(r.Attempted))
	r.set("client.trace_overhead_share", 1-median(onRate)/median(offRate))
	r.set("quorum.load_skew", st.loadSkew)
	r.set("register.self_us_per_op", st.selfUs)
	r.set("register.rpc_union_us_per_op", st.unionUs)
	r.set("register.dispatch_skew_us", st.dispatchUs)
	r.set("register.gather_tail_us", st.gatherTailUs)
	r.set("register.rpcs_per_op", st.rpcsPerOp)
	r.set("register.late_reply_share", float64(late)/(st.rpcsPerOp*ops))
	r.set("register.stale_read_share", float64(stale)/float64(reads))
	r.set("register.eps_exact", sys.Epsilon())
	r.set("transport.rpc_us_p50", st.rpcP50Us)
	r.set("transport.rpc_us_p99", st.rpcP99Us)
	r.set("transport.rpc_overhead_us", st.rpcMeanUs-st.handleMeanUs)
	r.set("replica.handle_us_mean", st.handleMeanUs)
	r.set("replica.handles_per_op", st.handlesPerOp)

	if w.plane == planeTCP {
		frames := float64(cli1.FramesWritten-cli0.FramesWritten) + float64(srv1.FramesWritten-srv0.FramesWritten)
		flushes := float64(cli1.Flushes-cli0.Flushes) + float64(srv1.Flushes-srv0.Flushes)
		coalesced := float64(cli1.WritesCoalesced-cli0.WritesCoalesced) + float64(srv1.WritesCoalesced-srv0.WritesCoalesced)
		r.set("wire.bytes_per_op", float64(cli1.BytesWritten-cli0.BytesWritten+cli1.BytesRead-cli0.BytesRead)/ops)
		r.set("transport.frames_per_op", frames/ops)
		r.set("transport.flushes_per_op", flushes/ops)
		r.set("transport.coalesced_share", coalesced/frames)
	}
	r.setMemStats(&ms0, &ms1, ops)
	if err := r.setCPUShares(profile.Bytes()); err != nil {
		return nil, err
	}

	hot, cold := probeQuorum(sys, o.seed, o.small)
	r.set("quorum.pick_ns", hot)
	r.set("quorum.pick_cold_ns", cold)
	signed := sys.Mode() == pqs.ModeDissemination
	enc, dec := probeWire(w.valueSize, signed, o.small)
	r.set("wire.encode_ns", enc)
	r.set("wire.decode_ns", dec)
	apply, get := probeStore(w.keys, w.valueSize, o.small)
	r.set("replica.store_apply_ns", apply)
	r.set("replica.store_get_ns", get)
	if signed {
		sign, verify := probeSV(w.valueSize, o.seed, o.small)
		r.set("sv.sign_us", sign)
		r.set("sv.verify_us", verify)
	}

	if err := w.writeArtifacts(o.out, profile.Bytes(), tr); err != nil {
		return nil, err
	}
	return r, nil
}

// writeArtifacts leaves a traced run's CPU profile and, when there is a
// tracer, a sample of its spans in dir; "" writes nothing.
func (w *workload) writeArtifacts(dir string, profile []byte, tr *tracer) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if tr != nil {
		if err := tr.writeSpans(filepath.Join(dir, w.name+".spans.jsonl")); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, w.name+".cpu.pprof"), profile, 0o644)
}

func (r *result) setMemStats(before, after *runtime.MemStats, ops float64) {
	r.set("proc.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops)
	r.set("proc.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops)
	r.set("proc.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}

func (r *result) setCPUShares(profile []byte) error {
	shares, samples, err := cpuShares(profile)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		r.set(l+".cpu_share", shares[l])
	}
	r.set("proc.sched_cpu_share", shares[schedLayer])
	r.set("proc.cpu_samples", float64(samples))
	return nil
}

// simRound is one load.Run with the clocks read around it.
type simRound struct {
	res      *load.Result
	wall     float64 // seconds, as measured
	cpu      float64 // process CPU seconds, as measured
	slowness float64 // host slowness over the round
	stolen   bool    // the hypervisor took CPU time during the round
}

func (rd simRound) disturbed() bool { return rd.stolen }

func (w *workload) simRound(o options, sc *scaler) (simRound, error) {
	cfg, err := w.load(o.seed, o.small)
	if err != nil {
		return simRound{}, err
	}
	runtime.GC() // the previous round's cluster, so rounds start alike
	sc.begin()
	cpu0, start := cpuSeconds(), time.Now()
	res, err := load.Run(cfg)
	if err != nil {
		return simRound{}, err
	}
	rd := simRound{res: res, wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0}
	rd.slowness, rd.stolen = sc.end()
	return rd, nil
}

// minQuietRounds is how many undisturbed rounds a sim run wants for its
// medians; it keeps going past -seconds, to twice that, to get them.
const minQuietRounds = 3

// simRounds repeats the workload's round — same seed, so every round must
// produce the same digest — until o.seconds have passed, at least twice,
// and returns the undisturbed ones (see minQuietRounds).
func (w *workload) simRounds(o options, sc *scaler, r *result) ([]simRound, error) {
	var rounds []simRound
	quiet := 0
	start := time.Now()
	for {
		rd, err := w.simRound(o, sc)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rd)
		if !rd.stolen {
			quiet++
		}
		r.Attempted += rd.res.Ops
		r.Failed += rd.res.Unavailable + rd.res.WriteErrs
		if !rd.res.Pass {
			r.fail("round %d: epsilon gate failed: %d stale of %d reads against bound %.3g", len(rounds), rd.res.Stale, rd.res.Reads, rd.res.Bound)
		}
		if n := rd.res.Unavailable + rd.res.WriteErrs; n > 0 {
			r.fail("round %d: %d operations failed", len(rounds), n)
		}
		// load.sim_seconds is reported, not gated on, while ROADMAP item 1
		// (the tcp-virtual +-200us leak) is open; the digest is the contract.
		if first := rounds[0].res; rd.res.Digest != first.Digest || rd.res.Ops != first.Ops {
			r.fail("round %d: digest %s (%d ops) differs from round 1's %s (%d ops) on the same seed", len(rounds), rd.res.Digest, rd.res.Ops, first.Digest, first.Ops)
		}
		elapsed := time.Since(start).Seconds()
		if len(rounds) >= 2 && elapsed+rd.wall/2 >= o.seconds && (quiet >= minQuietRounds || elapsed >= 2*o.seconds) {
			return undisturbed(rounds, simRound.disturbed, minQuietRounds), nil
		}
	}
}

// simSetup times standing the workload's simulated system up and down:
// load.Run of its topology and client population with a single arrival per
// client, so cluster construction, client construction and (on tcp-virtual)
// listeners and dials are nearly all of the work.
func (w *workload) simSetup(o options, sc *scaler) ([]float64, error) {
	cfg, err := w.load(o.seed, o.small)
	if err != nil {
		return nil, err
	}
	cfg.Arrivals, cfg.LatencyOps, cfg.CrashN = 1, 0, 0
	return timeSetups(sc, o.small, func() error {
		_, err := load.Run(cfg)
		return err
	}, nil)
}

// runSim is the untraced sim-plane run. ops_per_s and cpu_us_per_op are
// medians over the rounds, at the reference host speed. The two p50 metrics
// both carry the latency phase's virtual-time median: load.Run alternates
// reads and writes there and does not tell them apart, and virtual time
// needs no scaling.
func (w *workload) runSim(o options, sc *scaler) (*result, error) {
	r := newResult(endToEnd)
	setups, err := w.simSetup(o, sc)
	if err != nil {
		return nil, err
	}
	rounds, err := w.simRounds(o, sc, r)
	if err != nil {
		return nil, err
	}
	var rate, rawRate, cpu []float64
	for _, rd := range rounds {
		rawRate = append(rawRate, float64(rd.res.Ops)/rd.wall)
		rate = append(rate, float64(rd.res.Ops)/rd.wall*rd.slowness)
		cpu = append(cpu, rd.cpu*1e6/float64(rd.res.Ops)/rd.slowness)
	}
	res := rounds[0].res
	r.set("ops_per_s", median(rate))
	r.set("cpu_us_per_op", median(cpu))
	r.set("read_p50_us", res.P50Ms*1e3)
	r.set("write_p50_us", res.P50Ms*1e3)
	r.set("peak_rss_mb", peakRSSMB())
	r.set("setup_s", median(setups))
	r.samples = map[string]float64{
		"rounds": float64(len(rounds)), "ops_per_round": float64(res.Ops), "latency_ops": float64(res.LatencyOps), "setups": float64(len(setups)),
		"raw_ops_per_s": median(rawRate), "host_slowness": median(sc.seen),
	}
	return r, nil
}

// traceSim is the traced sim-plane run: a discarded first round (the heap
// grows to size in it), an unprofiled reference round, then profiled rounds.
// The CPU profile is the only view inside load.Run.
func (w *workload) traceSim(o options, sc *scaler) (*result, error) {
	r := newResult(perLayer)
	if _, err := w.simRound(o, sc); err != nil {
		return nil, err
	}
	ref, err := w.simRound(o, sc)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	var profile bytes.Buffer
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return nil, err
	}
	o.seconds /= 2
	rounds, err := w.simRounds(o, sc, r)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)

	var rate, speedup []float64
	ops := 0
	for _, rd := range rounds {
		ops += rd.res.Ops
		rate = append(rate, float64(rd.res.Ops)/rd.wall*rd.slowness)
		speedup = append(speedup, rd.res.SimSeconds/rd.wall)
	}
	res := rounds[0].res
	r.samples = map[string]float64{
		"rounds": float64(len(rounds)), "ops_per_round": float64(res.Ops), "latency_ops": float64(res.LatencyOps),
		"host_slowness": median(sc.seen),
	}
	r.set("vtime.sim_speedup", median(speedup))
	r.set("vtime.timer_ns", probeTimer(o.small))
	r.set("load.virt_p50_ms", res.P50Ms)
	r.set("load.virt_p99_ms", res.P99Ms)
	r.set("load.eps_empirical", res.Epsilon)
	r.set("load.eps_bound", res.Bound)
	r.set("load.sim_seconds", res.SimSeconds)
	r.set("client.samples", float64(res.LatencyOps))
	r.set("client.fail_share", float64(r.Failed)/float64(r.Attempted))
	r.set("client.trace_overhead_share", 1-median(rate)/(float64(ref.res.Ops)/ref.wall*ref.slowness))
	r.setMemStats(&ms0, &ms1, float64(ops))
	if err := r.setCPUShares(profile.Bytes()); err != nil {
		return nil, err
	}
	cfg, err := w.load(o.seed, o.small)
	if err != nil {
		return nil, err
	}
	hot, cold := probeQuorum(cfg.System, o.seed, o.small)
	r.set("quorum.pick_ns", hot)
	r.set("quorum.pick_cold_ns", cold)
	if err := w.writeArtifacts(o.out, profile.Bytes(), nil); err != nil {
		return nil, err
	}
	return r, nil
}
