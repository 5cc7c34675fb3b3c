// Package load is the population-scale load harness: an open-loop,
// SimClock-driven generator that runs tens of thousands of simulated
// clients at configured arrival rates against universes of a thousand or
// more replicas, with membership churn as a first-class scenario
// dimension, and records the empirical ε, the PBS-style staleness depth
// distribution, and tail-latency percentiles per scale point. The ε verdict
// is chaos's: every counting-phase write and read goes, in the order the
// driver steps them, into one chaos.Checker, the judge of chaos histories
// too, and no history is stored.
//
// The engine runs two phases under one vtime.SimClock:
//
//   - The COUNTING phase measures ε at population scale. Every client has
//     its own register.Client, rng, writer clock and disjoint keyspace
//     ("c<id>/k<j>"); its two random sources (newRand: quorum sampling and
//     arrivals) are ChaCha8 streams keyed by seed, 320 B each, so a client
//     costs about 1.6 KB to build. It issues operations on an open-loop
//     arrival grid (whole microseconds). The clients are not workers: one
//     driver worker keeps every client's next arrival in a heap ordered by
//     (instant, insertion sequence), sleeps to the earliest, runs that
//     client's operation and re-inserts it at its next arrival. This phase
//     runs at zero simulated latency, so every operation completes at its
//     arrival instant on both planes; on the mem plane, with no fault hook
//     either, the network itself completes every call inline
//     (MemNetwork.Start) and register consumes it on the driver — no
//     option asks for it.
//     Clients share no key, and the only shared mutable state (the
//     membership-view counter) changes only at churn-wave instants
//     deliberately placed off the arrival grid (+1ns), so the
//     order in which same-instant arrivals run changes no outcome and the
//     run replays byte-for-byte from its seed (Result.Digest pins it). The
//     latency-tolerance knobs of the embedded Tuning block are stripped
//     here (hedging is meaningless at zero latency); W and ReadRepair,
//     which change coverage and therefore ε, are honored.
//
//   - The LATENCY phase measures the tail. A single sequential issuer runs
//     against the same cluster with the Topology latency model installed
//     and the FULL Tuning block (spares, hedging, eager reads) in effect,
//     and records per-operation virtual-time durations into p50/p99/p999.
//     With latency installed every call is started, not run
//     (transport.Starter): on mem a call is a MemNetwork.Start timer, over
//     tcp-virtual an entry in its connection's pending table that the reply
//     frame completes, and either completes on the worker driving the clock
//     — no worker per call — so hedge timers fire while calls are in flight.
//
// The cluster is a sim.World on either plane, and churn and crashes run on
// both. Churn runs as replacement waves: each of WaveSize servers leaves
// and rejoins with an empty replica (World.Leave and World.Join: its copy
// is destroyed — a departure in the timed-quorum sense — and the World's
// membership-view counter advances by one), the clock settles (over
// tcp-virtual a departure resets connections, and those resets must be
// over before the wave writes), and the new view version is re-advertised
// through the data plane itself — a quorum write of MemberViewKey by the
// churn driver — while the replacements run rejoin anti-entropy
// (GossipWaveRounds targeted gossip steps), exactly how a real deployment
// brings a fresh server up. Clients stamp every operation with the view
// they currently observe (the World's counter, as a deployment would cache
// its last-seen membership). A run's verdict is timed exactly when it
// churns (Waves > 0): the checker buckets eligible reads by view distance D
// and applies the time-decayed Gramoli-Raynal bound ε(D) in place of the
// flat one. Config.ViewBlind (the negative configuration) breaks exactly
// this link — ops stamp view 0 while churn still destroys copies — and
// must fail the timed gate, proving it has teeth.
package load

import (
	"container/heap"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"strconv"
	"time"

	"pqs/internal/chaos"
	"pqs/internal/config"
	"pqs/internal/diffusion"
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
	// Tuning is the access-tuning block. It is honored in full by the
	// latency phase; the counting phase strips the latency-tolerance knobs
	// (Spares/HedgeDelay/AdaptiveHedge/EagerRead) and keeps the coverage
	// knobs (W, ReadRepair) — see the package comment.
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

	// Waves and WaveSize configure churn on either plane: Waves
	// replacement waves, evenly spaced over the run (at off-grid +1ns
	// instants), each replacing WaveSize servers (round-robin over the
	// Cells·N − CrashN servers that never crash) with empty replicas, and
	// settling the clock before it writes. Waves > 0 makes the verdict the
	// time-decayed one (chaos.CheckConfig.Timed). Run refuses negative
	// values, and a WaveSize the rotation cannot cover.
	Waves    int
	WaveSize int
	// CrashN, when positive, crashes the CrashN highest-numbered servers
	// (which the churn rotation never touches) a third into the run and
	// recovers them at two thirds, settling the clock after each — fail-stop
	// pressure on top of churn, on either plane. Crashes are not
	// departures: the stores survive, so the view counter does not move.
	// Run refuses a CrashN outside [0, Cells·N].
	CrashN int
	// GossipWaveRounds, when positive, runs that many rejoin anti-entropy
	// rounds after each churn wave: only the freshly replaced servers step
	// (push-pull against random live peers), the way a real replacement
	// syncs itself in — a global synchronized round would be n full-store
	// exchanges per wave at population scale. Gossip heals the staleness
	// churn causes — rejoined-empty servers pull state back — so scenarios
	// that want to measure RAW timed decay leave it 0; the membership-view
	// advertisement itself always goes through the data plane's quorum
	// write regardless.
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

	// Ops is the grand total (counting + latency phases); Writes and
	// WriteErrs count the counting phase's writes and how many of them
	// failed.
	Ops       int `json:"ops"`
	Writes    int `json:"writes"`
	WriteErrs int `json:"write_errs,omitempty"`

	// CheckResult is the checker's verdict over the counting phase: its
	// reads and their classes, ε, the staleness depths, the flat p-value,
	// the timed verdict when the run churned, and Pass, which a run with
	// no eligible read also fails.
	chaos.CheckResult

	// Departures is the total number of copy-destroying replacements (the
	// final view-counter value); AdvertisedView what a FRESH client read
	// back from MemberViewKey after the run (0 when no churn ran) — the
	// end-to-end check that diffusion re-advertised the membership view
	// through the data plane.
	Departures     int    `json:"departures,omitempty"`
	AdvertisedView uint64 `json:"advertised_view,omitempty"`

	// Latency-phase percentiles, in milliseconds of virtual time.
	LatencyOps int     `json:"latency_ops,omitempty"`
	P50Ms      float64 `json:"p50_ms,omitempty"`
	P99Ms      float64 `json:"p99_ms,omitempty"`
	P999Ms     float64 `json:"p999_ms,omitempty"`

	// SimSeconds is the virtual time the run covered, from its first arrival
	// to its last completed operation (teardown excluded); Digest is the
	// FNV-64a digest of every client's operation stream in client order —
	// two runs of one Config must produce identical Results, Digest
	// included.
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
	sc := vtime.NewSimClock()
	var res *Result
	var err error
	sc.Run(func() {
		res, err = run(cfg, sc)
	})
	return res, err
}

// engine is the per-run shared state.
type engine struct {
	cfg     cfg
	sc      *vtime.SimClock
	world   *sim.World
	gossip  *diffusion.Group
	horizon time.Duration
	// nextChurn rotates the replacement targets over [0, churnSpan).
	nextChurn int
	churnSpan int
	total     int
	// check judges the counting phase; seq numbers the ops it is handed.
	check     *chaos.Checker
	seq       int
	writeErrs int
}

type cfg = Config

func run(c Config, sc *vtime.SimClock) (*Result, error) {
	n := c.System.N()
	q := c.System.QuorumSize()
	world, err := sim.NewWorld(config.Cluster{Cells: c.Topology.Cells, N: n, Seed: c.Seed, Clock: sc},
		c.Topology.Transport, c.Seed+0x7C9, sim.TCPOptions{})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	defer world.Close()
	total := len(world.Cluster.Replicas)
	e := &engine{cfg: c, sc: sc, world: world, total: total}
	e.churnSpan = total - c.CrashN
	e.check = chaos.NewChecker(chaos.RunCheckConfig(register.Benign, c.System, c.Bound, c.Cells, c.Waves > 0))
	e.horizon = time.Duration(c.Arrivals) * arrivalMean

	if c.Waves > 0 && c.GossipWaveRounds > 0 {
		g, err := diffusion.NewGroup(world.Cluster.Replicas, world.GossipTransport(), 1, nil, c.Seed+0x60551, sc)
		if err != nil {
			return nil, err
		}
		e.gossip = g
	}

	// The counting phase: this worker drives every client from the arrival
	// heap; the churn and crash drivers are workers of their own.
	clients := make([]*clientState, c.Clients)
	for i := range clients {
		cs, err := e.newClientState(i)
		if err != nil {
			return nil, err
		}
		clients[i] = cs
	}
	wg := vtime.NewWaitGroup(sc)
	if c.Waves > 0 {
		wg.Add(1)
		sc.Go(func() {
			defer wg.Done()
			e.churnLoop()
		})
	}
	if c.CrashN > 0 {
		wg.Add(1)
		sc.Go(func() {
			defer wg.Done()
			e.crashLoop()
		})
	}
	e.drive(clients)
	wg.Wait()
	for _, cs := range clients {
		cs.cl.WaitDrained()
	}

	res := e.collect(clients, n, q)

	// End-to-end advertisement check: a FRESH client (new rng, new view of
	// the world) must read back the latest advertised membership version.
	if c.Waves > 0 && !c.ViewBlind {
		fresh, err := e.newClient(c.Seed+0x4EAD, uint32(c.Clients+3), false)
		if err != nil {
			return nil, err
		}
		if rr, err := fresh.Read(context.Background(), MemberViewKey); err == nil && rr.Found && len(rr.Value) == 8 {
			res.AdvertisedView = binary.BigEndian.Uint64(rr.Value)
		}
	}

	// The latency phase: sequential issuer, real latency model, full
	// Tuning block.
	if c.LatencyOps > 0 && c.Topology.LatencyMax > 0 {
		if err := e.latencyPhase(res); err != nil {
			return nil, err
		}
	}

	// Read the clock here, on the run's own worker, before the deferred
	// teardown: closing a tcp-virtual World starts a close → FIN → EOF →
	// close-back chain per connection, and how many of its chunks land
	// before the last worker exits is up to the Go scheduler.
	res.SimSeconds = sc.Elapsed().Seconds()
	return res, nil
}

// clientState is one simulated client's private world: its own register
// client, rng, per-key write records and digest. Its rng and its register
// client's sampler are newRand sources, 368 B each with their Rand, and
// the whole state is about 1.6 KB. Clients share
// only the replicas (on disjoint keys) and the view counter, so the
// interleaving of same-instant arrivals cannot change any outcome.
type clientState struct {
	id      int
	rng     *rand.Rand
	arrived int // arrivals served so far
	cl      *register.Client
	keys    []string
	// ctr[k] is the write counter of key k (its value is the decimal
	// counter); viewAt[k] the membership view observed at its last write.
	ctr    []int
	viewAt []uint64

	writes int
	digest uint64
}

// newClient builds a register client for this engine's plane. Counting
// clients strip the latency-tolerance knobs (see the package comment);
// the latency-phase issuer and the churn driver's advertiser keep them.
func (e *engine) newClient(seed int64, writer uint32, fullTuning bool) (*register.Client, error) {
	tuning := e.cfg.Tuning
	if !fullTuning {
		tuning = config.Tuning{W: tuning.W, ReadRepair: tuning.ReadRepair}
	}
	return register.NewClient(register.Options{
		System:    e.cfg.System,
		Mode:      register.Benign,
		Transport: e.world.Caller(),
		Rand:      newRand(seed),
		Clock:     ts.NewClock(writer),
		Time:      e.sc,
		Tuning:    tuning,
		Cells:     e.cfg.Cells,
	})
}

// chacha8 adapts math/rand/v2's ChaCha8 to the math/rand Source64 that
// register and quorum's samplers take. The state is embedded, so a source is
// one 320 B allocation, where math/rand's own is a 607-word table (5 KB)
// seeded by 1 841 chained steps — most of what a client would otherwise
// cost. Distinct seeds key independent streams.
type chacha8 struct{ randv2.ChaCha8 }

func (c *chacha8) Int63() int64 { return int64(c.Uint64() >> 1) }

// Seed keys the generator with seed, little-endian, in bytes 0–7 of its
// 32-byte key; the rest are zero.
func (c *chacha8) Seed(seed int64) {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], uint64(seed))
	c.ChaCha8.Seed(key)
}

// newRand builds every random source load makes: each client's register
// sampler and arrival process, the churn advertiser, the fresh reader and
// the latency issuer.
func newRand(seed int64) *rand.Rand {
	src := new(chacha8)
	src.Seed(seed)
	return rand.New(src)
}

func (e *engine) newClientState(i int) (*clientState, error) {
	cl, err := e.newClient(e.cfg.Seed+0x9E3779B9*int64(i+1), uint32(i+1), false)
	if err != nil {
		return nil, err
	}
	cs := &clientState{
		id:     i,
		rng:    newRand(e.cfg.Seed ^ (0x5DEECE66D * int64(i+1))),
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
	return e.world.View()
}

// mix folds v into the client's FNV-64a digest.
func (c *clientState) mix(v uint64) {
	for i := 0; i < 8; i++ {
		c.digest ^= v & 0xFF
		c.digest *= 1099511628211
		v >>= 8
	}
}

// sleepUntil advances the worker to absolute virtual instant t.
func (e *engine) sleepUntil(t time.Duration) {
	if d := t - e.sc.Elapsed(); d > 0 {
		e.sc.Sleep(d)
	}
}

// draw returns the next inter-arrival gap: uniform in [arrivalMean/2,
// 3·arrivalMean/2) on a whole-microsecond grid.
func (c *clientState) draw() time.Duration {
	us := int64(arrivalMean / time.Microsecond)
	return time.Duration(us/2+c.rng.Int63n(us)) * time.Microsecond
}

// arrival is one client's next arrival instant in the driver's heap.
type arrival struct {
	at  time.Duration
	seq uint64 // insertion order: the tie-break between equal instants
	c   *clientState
}

// arrivals is a min-heap of arrival by (at, seq).
type arrivals []arrival

func (h arrivals) Len() int { return len(h) }
func (h arrivals) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h arrivals) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivals) Push(x any)   { *h = append(*h, x.(arrival)) }
func (h *arrivals) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// drive runs the counting phase on the calling worker: sleep to the earliest
// pending arrival, draw that client's next gap, run its operation, re-insert
// it — until every client has made all its arrivals. Each client's rng sees
// its draws in one fixed order (a gap, then the operation's own draws), and
// every operation completes at its arrival instant.
func (e *engine) drive(clients []*clientState) {
	h := make(arrivals, len(clients))
	for i, c := range clients {
		h[i] = arrival{at: c.draw(), seq: uint64(i), c: c}
	}
	heap.Init(&h)
	seq := uint64(len(h))
	for len(h) > 0 {
		a := h[0]
		e.sleepUntil(a.at)
		c := a.c
		t := c.arrived
		c.arrived++
		next := a.at + c.draw()
		e.step(c, t)
		if c.arrived == e.cfg.Arrivals {
			heap.Pop(&h)
			continue
		}
		h[0].at, h[0].seq = next, seq
		seq++
		heap.Fix(&h, 0)
	}
}

// step is client c's operation at its arrival t.
func (e *engine) step(c *clientState, t int) {
	if e.cfg.ReadFraction > 0 {
		written := min(c.writes, clientKeys)
		if written == 0 || c.rng.Float64() >= e.cfg.ReadFraction {
			e.doWrite(c, c.writes%clientKeys)
		} else {
			e.doRead(c, c.rng.Intn(written))
		}
		return
	}
	e.doWrite(c, t%clientKeys)
	if t >= readLag {
		e.doRead(c, (t-readLag)%clientKeys)
	}
}

func (e *engine) doWrite(c *clientState, k int) {
	c.ctr[k]++
	c.viewAt[k] = e.curView()
	val := strconv.Itoa(c.ctr[k])
	wr, err := c.cl.Write(context.Background(), c.keys[k], []byte(val))
	e.judge(c, chaos.Op{Kind: chaos.OpWrite, Key: c.keys[k], Value: val, Stamp: wr.Stamp,
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
	e.judge(c, chaos.Op{Kind: chaos.OpRead, Key: c.keys[k], Value: value, Stamp: rr.Stamp,
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

// judge hands op, client c's operation, to the run's checker: the driver
// steps one client at a time, so ops arrive in the order they ran.
func (e *engine) judge(c *clientState, op chaos.Op, err error) {
	op.Seq = e.seq
	e.seq++
	op.Cell = c.cl.CellFor(op.Key)
	if err != nil {
		op.Err = err.Error()
	}
	e.check.Add(op)
}

// churnLoop fires the replacement waves at off-grid instants (+1ns past
// evenly spaced points of the horizon), so a wave never ties with an
// arrival timer and every client observes a consistent before/after view.
func (e *engine) churnLoop() {
	ctx := context.Background()
	adv, err := e.newClient(e.cfg.Seed+0xAD7E7, uint32(e.cfg.Clients+2), false)
	if err != nil {
		panic(fmt.Sprintf("load: churn advertiser: %v", err))
	}
	replaced := make([]quorum.ServerID, e.cfg.WaveSize)
	joined := make([]*replica.Replica, e.cfg.WaveSize)
	for w := 1; w <= e.cfg.Waves; w++ {
		e.sleepUntil(e.horizon*time.Duration(w)/time.Duration(e.cfg.Waves+1) + time.Nanosecond)
		for j := 0; j < e.cfg.WaveSize; j++ {
			id := quorum.ServerID(e.nextChurn % e.churnSpan)
			e.nextChurn++
			e.world.Leave(id)
			r, err := e.world.Join(id)
			if err != nil {
				panic(fmt.Sprintf("load: rejoin %d: %v", id, err))
			}
			replaced[j], joined[j] = id, r
		}
		// A departure's consequences run on other workers at this instant
		// (over tcp-virtual, the reset connections fail); let them finish
		// before the advertisement leases a connection.
		e.sc.Settle()
		if e.gossip != nil {
			// One batched swap: a Replace per server would refresh every
			// engine's peer set per call — O(n²) id copies per server, which
			// dominates wall time at n=1000.
			if err := e.gossip.Replace(replaced, joined); err != nil {
				panic(fmt.Sprintf("load: rejoin gossip: %v", err))
			}
		}
		// Re-advertise the new membership version through the data plane
		// (quorum write) and let the replacements anti-entropy themselves
		// back in. Only the rejoining servers step: a global round at
		// population scale is n full-store first-contact exchanges, and the
		// replacements are the only stores churn emptied.
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], e.world.View())
		if _, err := adv.Write(ctx, MemberViewKey, buf[:]); err != nil {
			panic(fmt.Sprintf("load: view advertisement: %v", err))
		}
		for r := 0; e.gossip != nil && r < e.cfg.GossipWaveRounds; r++ {
			if err := e.gossip.StepOnly(ctx, replaced); err != nil {
				panic(fmt.Sprintf("load: gossip step: %v", err))
			}
		}
	}
}

// crashLoop crashes the CrashN highest servers (outside the churn
// rotation) a third into the run and recovers them at two thirds; the +2ns
// offsets dodge both the arrival grid and the wave instants.
func (e *engine) crashLoop() {
	e.sleepUntil(e.horizon/3 + 2*time.Nanosecond)
	for j := 0; j < e.cfg.CrashN; j++ {
		e.world.Crash(quorum.ServerID(e.total - 1 - j))
	}
	e.sc.Settle()
	e.sleepUntil(2*e.horizon/3 + 2*time.Nanosecond)
	for j := 0; j < e.cfg.CrashN; j++ {
		e.world.Recover(quorum.ServerID(e.total - 1 - j))
	}
	e.sc.Settle()
}

// collect takes the checker's verdict and folds the per-client write
// counts and digests, in client order, into the Result.
func (e *engine) collect(clients []*clientState, n, q int) *Result {
	res := &Result{
		Name: e.cfg.Name, Seed: e.cfg.Seed, N: n, Q: q,
		Clients: e.cfg.Clients, Transport: e.world.Plane(),
		WriteErrs:   e.writeErrs,
		CheckResult: e.check.Result(),
		Departures:  int(e.world.View()),
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
	e.world.SetLatency(e.cfg.Topology.LatencyMin, e.cfg.Topology.LatencyMax)
	issuer, err := e.newClient(e.cfg.Seed+0x1A7E4C, uint32(e.cfg.Clients+4), true)
	if err != nil {
		return err
	}
	ctx := context.Background()
	durs := make([]time.Duration, 0, e.cfg.LatencyOps)
	for i := 0; i < e.cfg.LatencyOps; i++ {
		key := "lat/k" + strconv.Itoa(i%16)
		start := e.sc.Elapsed()
		if i%2 == 0 {
			if _, err := issuer.Write(ctx, key, []byte{byte(i)}); err != nil {
				return fmt.Errorf("load: latency write: %w", err)
			}
		} else {
			if _, err := issuer.Read(ctx, key); err != nil {
				return fmt.Errorf("load: latency read: %w", err)
			}
		}
		durs = append(durs, e.sc.Elapsed()-start)
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
