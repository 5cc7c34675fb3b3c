// Package load is the population-scale load harness: tens of thousands of
// simulated clients, each on its own open-loop arrival grid, against
// universes of a thousand or more replicas, with membership churn as a
// scenario dimension. A scale point records the empirical ε, the PBS-style
// staleness depths and tail-latency percentiles. It runs on chaos's run
// loop (a chaos.Rig, Rig.Drive and a chaos.Recorder), so every counting
// operation, in the order the driver steps it, goes to the checker that
// judges chaos runs; no history is stored.
//
// A run has two phases under one vtime.SimClock:
//
//   - The COUNTING phase measures ε. Every client has its own
//     register.Client, writer clock, disjoint keyspace ("c<id>/k<j>") and
//     two quorum.NewRand streams (quorum sampling, arrivals), about 1.6 KB
//     in all. Its gap is a draw on a whole-microsecond grid and its step
//     one operation, or a write and a lagged read. The phase runs at zero
//     latency, so every operation completes at its arrival instant; on mem,
//     with no fault hook either, the network completes every call inline
//     (MemNetwork.Start) on the driver — no option asks for it. Clients
//     share no key, and the one shared mutable state, the membership-view
//     counter, changes only at churn instants off the arrival grid (+1ns),
//     so the run replays byte-for-byte from its seed (Result.Digest pins
//     it). Counting clients keep only Tuning's coverage knobs (W,
//     ReadRepair): hedging is meaningless at zero latency.
//
//   - The LATENCY phase measures the tail: one sequential issuer, with the
//     Topology latency model live and the full Tuning block, records
//     per-operation virtual-time durations into p50/p99/p999. Its calls are
//     started (transport.Starter) and complete on the worker driving the
//     clock, no worker per call, so hedge timers fire while calls are in
//     flight.
//
// Churn runs as replacement waves on either plane (Config.Waves): each
// replaced server's copy is destroyed and the World's view counter
// advances, and the churn driver re-advertises the view through the data
// plane (a quorum write of MemberViewKey) while the replacements run
// rejoin anti-entropy, the way a deployment brings a fresh server up.
// Clients stamp every op with the view they observe, and a run that churns
// is judged by the time-decayed Gramoli-Raynal bound ε(D) over view
// distance D in place of the flat one. Config.ViewBlind severs the stamp,
// and its run must fail that gate.
package load

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"pqs/internal/chaos"
	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/replica"
	"pqs/internal/sim"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// MemberViewKey is the reserved register key under which the churn driver
// re-advertises the current membership-view version (the timed-quorum view
// counter), following the precedent of register.ViewKey for ring views.
// The NUL prefix keeps it out of every client keyspace.
const MemberViewKey = "\x00pqs/member-view"

// Config drives one population-scale load run.
type Config struct {
	// Tuning is the access-tuning block: the latency phase's in full, the
	// counting phase's coverage knobs (W, ReadRepair) only.
	config.Tuning
	// Topology supplies Cells, Transport and the latency model (used by the
	// latency phase).
	config.Topology

	// Name labels the scale point in reports and BENCH_epsilon.json.
	Name string
	// System is the quorum system under test.
	System quorum.System
	// Clients is the number of concurrently simulated clients.
	Clients int
	// Arrivals is the number of arrival instants per client, arrivalMean
	// apart on average. In pair mode (ReadFraction == 0) each arrival issues
	// a write plus — once the lag has primed — the read readLag arrivals
	// behind it; in fraction mode each arrival issues one operation, a read
	// with probability ReadFraction.
	Arrivals int
	// ReadFraction > 0 selects fraction mode: each arrival is a read with
	// this probability (of a uniformly chosen already-written key of the
	// client's clientKeys), else a write. 0 selects pair mode. Run refuses
	// a value outside [0, 1], NaN included.
	ReadFraction float64
	// Seed fixes every random choice. Equal Configs produce equal Results
	// (Result.Digest is the replay contract).
	Seed int64
	// Bound is the per-read ε bound (a system's EpsilonBound) the checker
	// tests at confidence chaos.DefaultAlpha: flat, or the base the timed
	// bound decays from when the run churns.
	Bound float64

	// Waves and WaveSize configure churn: Waves replacement waves, evenly
	// spaced over the run at off-grid (+1ns) instants, each replacing
	// WaveSize servers, round-robin over the Cells·N − CrashN that never
	// crash, with empty replicas. Waves > 0 makes the verdict the
	// time-decayed one. Run refuses negative values, and a WaveSize the
	// rotation cannot cover.
	Waves    int
	WaveSize int
	// CrashN, when positive, crashes the CrashN highest-numbered servers a
	// third into the run and recovers them at two thirds. Crashes are not
	// departures: the stores survive and the view counter stands. Run
	// refuses a CrashN outside [0, Cells·N].
	CrashN int
	// GossipWaveRounds, when positive, runs that many rejoin anti-entropy
	// rounds after each churn wave, in which only the replaced servers step
	// (push-pull against random live peers). Gossip heals the staleness
	// churn causes, so scenarios that measure the raw timed decay leave it
	// 0; the view advertisement goes through a quorum write regardless.
	GossipWaveRounds int
	// ViewBlind is the negative knob: ops are stamped with view 0 while
	// churn still destroys copies. A churning run with ViewBlind set must
	// FAIL (all reads collapse into the D=0 bucket, which has no churn
	// allowance) — the scale gate's proof of teeth.
	ViewBlind bool

	// LatencyOps is the number of sequential operations the latency phase
	// issues (0 skips the phase; it also requires Topology.LatencyMax >
	// 0). The phase runs after counting, on the same cluster. Run refuses
	// a negative value.
	LatencyOps int
}

// Result is one scale point's record — the per-scenario entry of
// BENCH_epsilon.json.
type Result struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	N         int    `json:"n"`
	Q         int    `json:"q"`
	Clients   int    `json:"clients"`
	Transport string `json:"transport"`

	// Ops counts both phases' operations; Writes and WriteErrs the
	// counting phase's writes and those that failed.
	Ops       int `json:"ops"`
	Writes    int `json:"writes"`
	WriteErrs int `json:"write_errs,omitempty"`

	// CheckResult is the checker's verdict over the counting phase: its
	// reads and their classes, ε, the staleness depths, the flat p-value,
	// the timed verdict when the run churned, and Pass, which a run with
	// no eligible read also fails.
	chaos.CheckResult

	// Departures is the number of copy-destroying replacements (the final
	// view); AdvertisedView the view a fresh client read back from
	// MemberViewKey after a churning run, the end-to-end check of the
	// advertisement.
	Departures     int    `json:"departures,omitempty"`
	AdvertisedView uint64 `json:"advertised_view,omitempty"`

	// Latency-phase percentiles, in milliseconds of virtual time.
	LatencyOps int     `json:"latency_ops,omitempty"`
	P50Ms      float64 `json:"p50_ms,omitempty"`
	P99Ms      float64 `json:"p99_ms,omitempty"`
	P999Ms     float64 `json:"p999_ms,omitempty"`

	// SimSeconds is the virtual time the run covered, teardown excluded;
	// Digest the FNV-64a digest of every client's operation stream, in
	// client order. Two runs of one Config produce identical Results.
	SimSeconds float64 `json:"sim_seconds"`
	Digest     string  `json:"digest"`
}

// The arrival process and key rotation of every client: gaps drawn
// uniformly from [arrivalMean/2, 3·arrivalMean/2) on a whole-microsecond
// grid, per client, from the run seed; clientKeys rotating keys per client;
// and, in pair mode, the read at arrival t targets the key written at
// arrival t-readLag, so churn waves land between a key's write and its read
// and the depth buckets D > 0 are populated.
const (
	arrivalMean = time.Millisecond
	clientKeys  = 4
	readLag     = 1
)

// Run executes one load configuration under a fresh SimClock and returns
// its scale-point record. Deterministic: equal cfg, equal *Result.
func Run(cfg Config) (*Result, error) {
	if cfg.System == nil {
		return nil, errors.New("load: System is required")
	}
	if cfg.Clients <= 0 || cfg.Arrivals <= 0 {
		return nil, errors.New("load: Clients and Arrivals must be positive")
	}
	total := config.Cluster{Cells: cfg.Cells, N: cfg.System.N()}.Total()
	switch {
	case cfg.CrashN < 0 || cfg.CrashN > total:
		return nil, fmt.Errorf("load: CrashN %d outside [0, %d]", cfg.CrashN, total)
	case cfg.Waves < 0 || cfg.WaveSize < 0:
		return nil, errors.New("load: Waves and WaveSize must not be negative")
	case cfg.Waves > 0 && cfg.WaveSize > total-cfg.CrashN:
		return nil, fmt.Errorf("load: WaveSize %d exceeds the %d servers the churn rotation covers", cfg.WaveSize, total-cfg.CrashN)
	case !(cfg.ReadFraction >= 0 && cfg.ReadFraction <= 1):
		return nil, fmt.Errorf("load: ReadFraction %v outside [0, 1]", cfg.ReadFraction)
	case cfg.LatencyOps < 0:
		return nil, errors.New("load: LatencyOps must not be negative")
	}
	res, secs, err := chaos.Simulate(config.Cluster{Cells: cfg.Cells, N: cfg.System.N(), Seed: cfg.Seed}, cfg.Transport,
		cfg.Seed+0x7C9, sim.TCPOptions{}, func(rig *chaos.Rig) (*Result, error) { return run(cfg, rig) })
	if err != nil {
		return nil, err
	}
	res.SimSeconds = secs
	return res, nil
}

// engine is the per-run shared state.
type engine struct {
	*chaos.Rig
	cfg     Config
	horizon time.Duration
	// rec judges the counting phase.
	rec       *chaos.Recorder
	writeErrs int
}

func run(c Config, rig *chaos.Rig) (*Result, error) {
	e := &engine{Rig: rig, cfg: c, horizon: time.Duration(c.Arrivals) * arrivalMean,
		rec: chaos.NewRecorder(register.Benign, c.System, c.Bound, c.Cells, c.Waves > 0)}

	if c.Waves > 0 && c.GossipWaveRounds > 0 {
		if err := rig.Diffuse(1); err != nil {
			return nil, err
		}
	}

	// The counting phase: this worker drives the clients; the churn and
	// crash drivers are workers of their own.
	clients := make([]*clientState, c.Clients)
	pop := make([]chaos.Client, c.Clients)
	for i := range clients {
		cs, err := e.newClientState(i)
		if err != nil {
			return nil, err
		}
		clients[i], pop[i] = cs, cs
	}
	wg := vtime.NewWaitGroup(e.Clock)
	if c.Waves > 0 {
		wg.Add(1)
		e.Clock.Go(func() {
			defer wg.Done()
			e.churnLoop()
		})
	}
	if c.CrashN > 0 {
		wg.Add(1)
		e.Clock.Go(func() {
			defer wg.Done()
			e.crashLoop()
		})
	}
	err := e.Drive(pop, c.Arrivals)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, cs := range clients {
		cs.cl.WaitDrained()
	}

	res := e.collect(clients)

	// A fresh client must read back the latest advertised view.
	if c.Waves > 0 && !c.ViewBlind {
		fresh, err := e.newClient(uint32(c.Clients+3), false)
		if err != nil {
			return nil, err
		}
		if rr, err := fresh.Read(context.Background(), MemberViewKey); err == nil && rr.Found && len(rr.Value) == 8 {
			res.AdvertisedView = binary.BigEndian.Uint64(rr.Value)
		}
	}

	if c.LatencyOps > 0 && c.Topology.LatencyMax > 0 {
		if err := e.latencyPhase(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// clientState is one simulated client of the counting phase: its own
// register client, rng, per-key write records and digest. Its rng and
// sampler are the streams (Seed, StreamArrival, id) and (Seed,
// StreamClient, id+1), 368 B each with their Rand.
type clientState struct {
	e    *engine
	rng  *rand.Rand
	cl   *register.Client
	keys []string
	// ctr[k] is the write counter of key k (its value is the decimal
	// counter); viewAt[k] the membership view observed at its last write.
	ctr    []int
	viewAt []uint64

	writes int
	digest uint64
}

// newClient builds writer's register client, with the full Tuning block
// or its coverage knobs only.
func (e *engine) newClient(writer uint32, fullTuning bool) (*register.Client, error) {
	tuning := e.cfg.Tuning
	if !fullTuning {
		tuning = config.Tuning{W: tuning.W, ReadRepair: tuning.ReadRepair}
	}
	return register.NewClient(register.Options{
		System:    e.cfg.System,
		Mode:      register.Benign,
		Transport: e.World.Caller(),
		Rand:      quorum.NewRand(e.cfg.Seed, quorum.StreamClient, uint64(writer)),
		Clock:     ts.NewClock(writer),
		Time:      e.Clock,
		Tuning:    tuning,
		Cells:     e.cfg.Cells,
	})
}

func (e *engine) newClientState(i int) (*clientState, error) {
	cl, err := e.newClient(uint32(i+1), false)
	if err != nil {
		return nil, err
	}
	cs := &clientState{
		e:      e,
		rng:    quorum.NewRand(e.cfg.Seed, quorum.StreamArrival, uint64(i)),
		cl:     cl,
		keys:   make([]string, clientKeys),
		ctr:    make([]int, clientKeys),
		viewAt: make([]uint64, clientKeys),
		digest: 14695981039346656037, // FNV-64a offset basis
	}
	for k := range cs.keys {
		cs.keys[k] = "c" + strconv.Itoa(i) + "/k" + strconv.Itoa(k)
	}
	return cs, nil
}

// curView is the membership version ops are stamped with; ViewBlind (the
// negative configuration) severs the link.
func (e *engine) curView() uint64 {
	if e.cfg.ViewBlind {
		return 0
	}
	return e.World.View()
}

// mix folds v into the client's FNV-64a digest.
func (c *clientState) mix(v uint64) {
	for i := 0; i < 8; i++ {
		c.digest ^= v & 0xFF
		c.digest *= 1099511628211
		v >>= 8
	}
}

// Gap is the client's next inter-arrival gap: uniform in [arrivalMean/2,
// 3·arrivalMean/2) on a whole-microsecond grid.
func (c *clientState) Gap() time.Duration {
	us := int64(arrivalMean / time.Microsecond)
	return time.Duration(us/2+c.rng.Int63n(us)) * time.Microsecond
}

// Step is the client's operation at its arrival t.
func (c *clientState) Step(t int) error {
	e := c.e
	if e.cfg.ReadFraction > 0 {
		written := min(c.writes, clientKeys)
		if written == 0 || c.rng.Float64() >= e.cfg.ReadFraction {
			e.doWrite(c, c.writes%clientKeys)
		} else {
			e.doRead(c, c.rng.Intn(written))
		}
		return nil
	}
	e.doWrite(c, t%clientKeys)
	if t >= readLag {
		e.doRead(c, (t-readLag)%clientKeys)
	}
	return nil
}

func (e *engine) doWrite(c *clientState, k int) {
	c.ctr[k]++
	c.viewAt[k] = e.curView()
	val := strconv.Itoa(c.ctr[k])
	wr, err := c.cl.Write(context.Background(), c.keys[k], []byte(val))
	e.rec.Record(c.cl, chaos.Op{Kind: chaos.OpWrite, Key: c.keys[k], Value: val, Stamp: wr.Stamp,
		Full: err == nil && len(wr.Acked) == len(wr.Quorum), View: c.viewAt[k]}, err)
	if err != nil {
		e.writeErrs++
	}
	c.writes++
	c.mix(1)
	c.mix(uint64(k))
	c.mix(uint64(c.ctr[k]))
	c.mix(c.viewAt[k])
}

func (e *engine) doRead(c *clientState, k int) {
	view := e.curView()
	rr, err := c.cl.Read(context.Background(), c.keys[k])
	value := string(rr.Value)
	e.rec.Record(c.cl, chaos.Op{Kind: chaos.OpRead, Key: c.keys[k], Value: value, Stamp: rr.Stamp,
		Found: rr.Found, View: view}, err)
	c.mix(2)
	c.mix(uint64(k))
	if err != nil {
		c.mix(^uint64(0))
		return
	}
	var got int
	if rr.Found {
		got, _ = strconv.Atoi(value)
	}
	d := 0
	if view > c.viewAt[k] {
		d = int(view - c.viewAt[k])
	}
	c.mix(uint64(c.ctr[k]))
	c.mix(uint64(got))
	c.mix(uint64(d))
}

// churnLoop fires the replacement waves at off-grid instants (+1ns past
// evenly spaced points of the horizon), so a wave never ties with an
// arrival timer and every client observes a consistent before/after view.
func (e *engine) churnLoop() {
	ctx := context.Background()
	adv, err := e.newClient(uint32(e.cfg.Clients+2), false)
	if err != nil {
		panic(fmt.Sprintf("load: churn advertiser: %v", err))
	}
	replaced := make([]quorum.ServerID, e.cfg.WaveSize)
	joined := make([]*replica.Replica, e.cfg.WaveSize)
	// The replacements rotate over the servers that never crash.
	next, span := 0, len(e.World.Cluster.Replicas)-e.cfg.CrashN
	for w := 1; w <= e.cfg.Waves; w++ {
		e.SleepUntil(e.horizon*time.Duration(w)/time.Duration(e.cfg.Waves+1) + time.Nanosecond)
		for j := 0; j < e.cfg.WaveSize; j++ {
			id := quorum.ServerID(next % span)
			next++
			e.World.Leave(id)
			r, err := e.World.Join(id)
			if err != nil {
				panic(fmt.Sprintf("load: rejoin %d: %v", id, err))
			}
			replaced[j], joined[j] = id, r
		}
		// A departure's consequences run on other workers at this instant
		// (over tcp-virtual, the reset connections fail); let them finish
		// before the advertisement leases a connection.
		e.Clock.Settle()
		if e.Gossip != nil {
			// One batched swap: a Replace per server would refresh every
			// engine's peer set per call — O(n²) id copies per server, which
			// dominates wall time at n=1000.
			if err := e.Gossip.Replace(replaced, joined); err != nil {
				panic(fmt.Sprintf("load: rejoin gossip: %v", err))
			}
		}
		// Re-advertise the new membership version through the data plane
		// (quorum write) and let the replacements anti-entropy themselves
		// back in. Only the rejoining servers step: a global round at
		// population scale is n full-store first-contact exchanges, and the
		// replacements are the only stores churn emptied.
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], e.World.View())
		if _, err := adv.Write(ctx, MemberViewKey, buf[:]); err != nil {
			panic(fmt.Sprintf("load: view advertisement: %v", err))
		}
		for r := 0; e.Gossip != nil && r < e.cfg.GossipWaveRounds; r++ {
			if err := e.Gossip.StepOnly(ctx, replaced); err != nil {
				panic(fmt.Sprintf("load: gossip step: %v", err))
			}
		}
	}
}

// crashLoop crashes the CrashN highest servers (outside the churn
// rotation) a third into the run and recovers them at two thirds; the +2ns
// offsets dodge both the arrival grid and the wave instants.
func (e *engine) crashLoop() {
	total := len(e.World.Cluster.Replicas)
	e.SleepUntil(e.horizon/3 + 2*time.Nanosecond)
	for j := 0; j < e.cfg.CrashN; j++ {
		e.World.Crash(quorum.ServerID(total - 1 - j))
	}
	e.Clock.Settle()
	e.SleepUntil(2*e.horizon/3 + 2*time.Nanosecond)
	for j := 0; j < e.cfg.CrashN; j++ {
		e.World.Recover(quorum.ServerID(total - 1 - j))
	}
	e.Clock.Settle()
}

// collect takes the checker's verdict and folds the per-client write
// counts and digests, in client order, into the Result.
func (e *engine) collect(clients []*clientState) *Result {
	res := &Result{
		Name: e.cfg.Name, Seed: e.cfg.Seed, N: e.cfg.System.N(), Q: e.cfg.System.QuorumSize(),
		Clients: e.cfg.Clients, Transport: e.World.Plane(),
		WriteErrs:   e.writeErrs,
		CheckResult: e.rec.Result(),
		Departures:  int(e.World.View()),
	}
	// A run that judged no read tested nothing: every read errored, or
	// every write it followed was partial.
	if res.EligibleReads == 0 {
		res.Pass = false
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range clients {
		res.Writes += c.writes
		binary.BigEndian.PutUint64(buf[:], c.digest)
		h.Write(buf[:])
	}
	res.Ops = res.Writes + res.Reads
	res.Digest = fmt.Sprintf("%016x", h.Sum64())
	return res
}

// latencyPhase runs the sequential tail-latency issuer: the Topology
// latency model goes live on the plane and the full Tuning block (spares,
// hedging, eager reads) steers the client.
func (e *engine) latencyPhase(res *Result) error {
	e.World.SetLatency(e.cfg.Topology.LatencyMin, e.cfg.Topology.LatencyMax)
	issuer, err := e.newClient(uint32(e.cfg.Clients+4), true)
	if err != nil {
		return err
	}
	ctx := context.Background()
	durs := make([]time.Duration, 0, e.cfg.LatencyOps)
	for i := 0; i < e.cfg.LatencyOps; i++ {
		key := "lat/k" + strconv.Itoa(i%16)
		start := e.Clock.Elapsed()
		if i%2 == 0 {
			if _, err := issuer.Write(ctx, key, []byte{byte(i)}); err != nil {
				return fmt.Errorf("load: latency write: %w", err)
			}
		} else {
			if _, err := issuer.Read(ctx, key); err != nil {
				return fmt.Errorf("load: latency read: %w", err)
			}
		}
		durs = append(durs, e.Clock.Elapsed()-start)
	}
	issuer.WaitDrained()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	res.LatencyOps = len(durs)
	res.P50Ms = quantileMs(durs, 50, 100)
	res.P99Ms = quantileMs(durs, 99, 100)
	res.P999Ms = quantileMs(durs, 999, 1000)
	res.Ops += len(durs)
	return nil
}

func quantileMs(sorted []time.Duration, num, den int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * num / den
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}
