package chaos

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"

	"pqs/internal/config"
	"pqs/internal/diffusion"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/replica"
	"pqs/internal/sim"
	"pqs/internal/sv"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
)

// Config drives one chaos run.
type Config struct {
	// Tuning is the access-tuning block handed to the client: it enables the
	// straggler-tolerant access path for the run, putting hedge timers
	// inside the chaos determinism contract.
	config.Tuning
	// Topology is the shape block. With Cells > 1 the cluster holds
	// Cells*System.N() replicas and the checker enforces the ε bound per
	// cell as well as globally (see CheckConfig.Cells); schedule actions
	// keep addressing global server ids, so scenarios can partition between
	// cells or crash a whole cell.
	//
	// Transport picks the plane of the run's sim.World, which carries the
	// schedule's crashes, recoveries, leaves and joins on either plane. The
	// link faults go to the Engine, the MemNetwork's link hook, on
	// sim.TransportMem, and to the VirtualNet on sim.TransportTCPVirtual,
	// which reimplements them at the byte-stream layer: drops reset
	// connections, corruption flips bits in framed chunks, blocks refuse
	// dials and reset streams, and duplication is a deliberate no-op — TCP
	// sequence numbers preclude it (as bandwidth limits are on mem).
	// Latency is virtual on both planes: it costs no wall time.
	config.Topology

	// Name labels the run in reports.
	Name string
	// System is the quorum system under test.
	System quorum.System
	// Mode selects the access protocol. In Masking mode the read threshold
	// is System's K().
	Mode register.Mode
	// Ops is the number of write-then-read pairs. Each pair writes a fresh
	// version of a key from a rotating set of Keys keys (default 8) and
	// reads it back, so staleness has measurable depth (the PBS-style
	// distribution in CheckResult.StaleDepth).
	Ops int
	// Keys is the rotating key-set size (default 8, clamped to Ops).
	Keys int
	// ReadLag, when positive, makes the read of pair t target the key
	// written at pair t-ReadLag (clamped at 0) instead of the key just
	// written — so schedule events (churn waves in particular) land
	// *between* a key's last write and its read, giving timed-quorum runs
	// reads with genuine churn depth D > 0. Use ReadLag < Keys, or the
	// lagged key will have been overwritten in the meantime. 0 keeps the
	// classic write-then-read-same-key pairing.
	ReadLag int
	// Seed fixes every random choice of the run. Two runs with equal
	// Config produce equal Histories.
	Seed int64
	// Schedule is the fault script, applied at pair boundaries.
	Schedule Schedule
	// Bound is the theorem's per-read ε for the system under test, tested
	// at confidence DefaultAlpha.
	Bound float64
	// Timed enables the timed-quorum verdict: ops record the membership-
	// view version (bumped by Leave/Join actions), and the checker buckets
	// eligible reads by churn depth D, allowing each bucket the time-
	// decayed bound Base + ε(D) - ε(0) with Base = Bound (see
	// CheckConfig.Timed). The natural pairing is a churn schedule plus
	// ReadLag, so reads actually observe D > 0.
	Timed bool

	// WireCodec selects the TCP serialization under tcp-virtual (zero value
	// = CodecBinary, the production default; the wan/ scenarios run
	// CodecBinaryFlate). Ignored on the mem plane.
	WireCodec transport.Codec
	// Lifecycle configures connection pooling, redial backoff and the
	// circuit breaker on the tcp-virtual client (zero value = legacy
	// single-connection behavior). The register client detects the breaker
	// through the HealthReporter interface, so an open breaker fast-fails
	// quorum members at dispatch and spares promote at t=0. Ignored on the
	// mem plane.
	Lifecycle transport.LifecycleConfig

	// SigAudit adds two end-of-run assertions to a dissemination run's
	// verdict, for scenarios whose adversary attacks signatures rather than
	// values. The client must have run at least one real signature check
	// (AccessStats.SigChecks > 0): a well-formed forged signature cannot be
	// refused for free, and a failed check is never remembered. And every
	// entry held by a replica whose behaviour is Correct must verify under
	// plain sv.Verify, which shares nothing with the registry's set of
	// verified tuples: replicas do not verify writes, so this is what
	// stands between a read repair that spreads the wrong signature and a
	// persistent ε degradation. Not for schedules that corrupt links, where
	// a correct server stores a corrupted write's garbage by design.
	SigAudit bool

	// GossipEvery, when positive, runs one synchronized diffusion round
	// (anti-entropy push-pull over the current membership) after every
	// GossipEvery-th write/read pair — lazy propagation running
	// concurrently with client traffic at operation granularity, which
	// keeps the interleaving deterministic. Each engine contacts
	// gossipFanout peers per round.
	GossipEvery int
}

// gossipFanout is the peers each diffusion engine contacts per round of a
// GossipEvery run.
const gossipFanout = 2

// Report is the outcome of a chaos run.
type Report struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	System   string `json:"system"`
	Mode     string `json:"mode"`
	Ops      int    `json:"ops"`
	Schedule string `json:"schedule,omitempty"`
	// Transport is the data plane the run used ("mem" or "tcp-virtual").
	Transport string      `json:"transport"`
	Check     CheckResult `json:"check"`
	// SimSeconds is the virtual time the scenario covered (wall time spent
	// is the caller's to measure — the run itself never reads the wall
	// clock).
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// GossipRounds and GossipMerged summarize the diffusion group when
	// Config.GossipEvery is set: synchronized rounds run and entries
	// adopted from peers across all engines.
	GossipRounds uint64 `json:"gossip_rounds,omitempty"`
	GossipMerged uint64 `json:"gossip_merged,omitempty"`
	// The delta-gossip byte accounting, summed over all engines:
	// BytesPushed is the binary payload volume the watermark deltas
	// actually carried, BytesSuppressed what the old full-snapshot pushes
	// would have added on top, and FullSyncs the pushes that fell back to
	// full state (first contact, post-churn rejoin, watermark regression).
	GossipBytesPushed     uint64 `json:"gossip_bytes_pushed,omitempty"`
	GossipBytesSuppressed uint64 `json:"gossip_bytes_suppressed,omitempty"`
	GossipFullSyncs       uint64 `json:"gossip_full_syncs,omitempty"`
	// SigChecks and SigReused are the client's signature-verdict counters
	// at the end of a dissemination run (register.AccessStats): verdicts
	// that ran ed25519 and verdicts reused from an earlier check or from the
	// client's own signing. StoredAudited counts the stored entries
	// Config.SigAudit verified. Aggregates, not part of History.
	SigChecks     uint64 `json:"sig_checks,omitempty"`
	SigReused     uint64 `json:"sig_reused,omitempty"`
	StoredAudited int    `json:"stored_audited,omitempty"`
	// Lifecycle snapshots the main client's connection-lifecycle counters
	// when Config.Lifecycle enables any feature under tcp-virtual. Counter
	// totals are aggregates, not part of the byte-for-byte determinism
	// contract (that contract covers History only).
	Lifecycle *LifecycleReport `json:"lifecycle,omitempty"`
	// StormCalls and StormErrors aggregate the side traffic of every Storm
	// action the schedule fired (dial-storm scenarios); StormCoalesced and
	// StormFastFails are the storm fleet's own dial-coalescing and
	// backoff-fast-fail counts, collected before the fleet is torn down.
	// Aggregates only; storm operations never enter History.
	StormCalls     uint64 `json:"storm_calls,omitempty"`
	StormErrors    uint64 `json:"storm_errors,omitempty"`
	StormCoalesced uint64 `json:"storm_dials_coalesced,omitempty"`
	StormFastFails uint64 `json:"storm_backoff_fast_fails,omitempty"`
	// History is the full operation record (omitted from JSON reports;
	// replay the seed to regenerate it). HistorySHA256 is its fingerprint,
	// the hex SHA-256 over the canonical op lines: same seed, same hash, on
	// every run and across commits that claim unchanged behaviour.
	History       History `json:"-"`
	HistorySHA256 string  `json:"history_sha256"`
}

// Run executes cfg: it stands up a cluster with a deterministic fault
// engine, plays the schedule while driving write-then-read pairs, records
// every operation, and checks the resulting history. The returned report's
// Check field carries the verdict; Run itself errors only on setup or
// harness failures, never on consistency violations. The whole scenario
// executes inside its own vtime.SimClock scheduler: latency, hedge timers
// and slow-lorris delays take virtual time, and two runs of one Config
// record equal Histories and equal SimSeconds.
func Run(cfg Config) (*Report, error) {
	sc := vtime.NewSimClock()
	var rep *Report
	var err error
	sc.Run(func() {
		rep, err = run(cfg, sc)
	})
	return rep, err
}

// run is the scenario body, on clk.
func run(cfg Config, clk *vtime.SimClock) (*Report, error) {
	if cfg.System == nil {
		return nil, errors.New("chaos: Config.System is required")
	}
	if cfg.Ops <= 0 {
		return nil, errors.New("chaos: Config.Ops must be positive")
	}
	keys := cfg.Keys
	if keys <= 0 {
		keys = 8
	}
	if keys > cfg.Ops {
		keys = cfg.Ops
	}

	// One seed fixes the link faults on either plane: the Engine's on mem,
	// the VirtualNet's under tcp-virtual.
	faultSeed := cfg.Seed + 0x9E3779B9
	world, err := sim.NewWorld(config.Cluster{Cells: cfg.Cells, N: cfg.System.N(), Seed: cfg.Seed, Clock: clk},
		cfg.Transport, faultSeed, sim.TCPOptions{Codec: cfg.WireCodec, Lifecycle: cfg.Lifecycle})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer world.Close()
	rt := &runtime{world: world, clock: clk, lifecycle: cfg.Lifecycle}
	if world.VNet != nil {
		rt.faults = world.VNet
	} else {
		// The chaos engine is the MemNetwork's link hook: message-level
		// fault injection.
		rt.eng = NewEngine(faultSeed)
		world.Cluster.Net.SetLinkHook(rt.eng)
		rt.faults = rt.eng
	}
	if cfg.LatencyMax > 0 {
		world.SetLatency(cfg.LatencyMin, cfg.LatencyMax)
	}

	opts := register.Options{
		System:    cfg.System,
		Mode:      cfg.Mode,
		Transport: world.Caller(),
		Rand:      quorum.NewRand(cfg.Seed, quorum.StreamClient, 0),
		Clock:     ts.NewClock(1),
		Time:      clk,
		Tuning:    cfg.Tuning,
		Cells:     cfg.Cells,
	}
	var writerKey sv.KeyPair
	if cfg.Mode == register.Dissemination {
		kp, err := sv.GenerateKey(quorum.NewRand(cfg.Seed, quorum.StreamSigningKey, 0))
		if err != nil {
			return nil, fmt.Errorf("chaos: generate key: %w", err)
		}
		writerKey = kp
		reg := sv.NewRegistry()
		if err := reg.Add(1, kp.Public); err != nil {
			return nil, fmt.Errorf("chaos: register key: %w", err)
		}
		opts.Signer = kp.Private
		opts.Registry = reg
	}
	client, err := register.NewClient(opts)
	if err != nil {
		return nil, fmt.Errorf("chaos: client: %w", err)
	}

	if cfg.GossipEvery > 0 {
		group, err := diffusion.NewGroup(world.Cluster.Replicas, world.GossipTransport(), gossipFanout, nil, cfg.Seed, clk)
		if err != nil {
			return nil, fmt.Errorf("chaos: diffusion group: %w", err)
		}
		rt.gossip = group
	}
	events := make([]Event, len(cfg.Schedule))
	copy(events, cfg.Schedule)
	sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })

	ctx := context.Background()
	hist := make(History, 0, 2*cfg.Ops)
	var gossipRounds uint64
	seq := 0
	next := 0
	for t := 0; t < cfg.Ops; t++ {
		applied := next
		for next < len(events) && events[next].T <= t {
			for _, act := range events[next].Acts {
				act.apply(rt)
			}
			next++
		}
		if next > applied {
			// An action's consequences run on other workers at this same
			// virtual instant (a reset notifies the client's connections, which
			// fail their connections, which the next acquire prunes). Let
			// them finish, or whether the next write leases a dead
			// connection or redials is the Go scheduler's choice.
			clk.Settle()
		}
		if rt.gossip != nil && t > 0 && t%cfg.GossipEvery == 0 {
			// Diffusion interleaves with client traffic at pair
			// boundaries: deterministic, and adversarial enough — the
			// round runs under whatever partition/fault state the
			// schedule has currently installed.
			if err := rt.gossip.Step(ctx); err != nil {
				return nil, fmt.Errorf("chaos: gossip round at t=%d: %w", t, err)
			}
			gossipRounds++
		}
		key := fmt.Sprintf("k%d", t%keys)
		value := fmt.Sprintf("v%d", t)
		opCell := client.CellFor(key)
		view := rt.world.View()

		wr, werr := client.Write(ctx, key, []byte(value))
		wop := Op{
			Seq: seq, Time: t, Kind: OpWrite, Key: key, Value: value,
			Stamp:  wr.Stamp,
			Full:   werr == nil && len(wr.Acked) == len(wr.Quorum),
			Quorum: wr.Quorum,
			Cell:   opCell,
			View:   view,
		}
		if werr != nil {
			wop.Err = werr.Error()
		}
		hist = append(hist, wop)
		seq++

		// With ReadLag the read targets the key written ReadLag pairs ago,
		// so churn events since that write give the read genuine depth D.
		readKey, readCell := key, opCell
		if cfg.ReadLag > 0 {
			lagT := t - cfg.ReadLag
			if lagT < 0 {
				lagT = 0
			}
			readKey = fmt.Sprintf("k%d", lagT%keys)
			readCell = client.CellFor(readKey)
		}
		rr, rerr := client.Read(ctx, readKey)
		rop := Op{
			Seq: seq, Time: t, Kind: OpRead, Key: readKey,
			Value: string(rr.Value), Stamp: rr.Stamp, Found: rr.Found,
			Quorum: rr.Quorum,
			Cell:   readCell,
			View:   view,
		}
		if rerr != nil {
			rop.Err = rerr.Error()
		}
		hist = append(hist, rop)
		seq++
	}
	client.WaitDrained()

	rep := &Report{
		Name:      cfg.Name,
		Seed:      cfg.Seed,
		System:    cfg.System.Name(),
		Mode:      cfg.Mode.String(),
		Ops:       cfg.Ops,
		Schedule:  cfg.Schedule.String(),
		Transport: world.Plane(),
		History:   hist,
		Check:     Check(hist, RunCheckConfig(cfg.Mode, cfg.System, cfg.Bound, cfg.Cells, cfg.Timed)),

		HistorySHA256: hist.sha256(),
	}
	if cfg.Mode == register.Dissemination {
		st := client.Stats()
		rep.SigChecks, rep.SigReused = st.SigChecks, st.SigReused
		if cfg.SigAudit {
			rep.auditSignatures(world.Cluster.Replicas, writerKey.Public)
		}
	}
	if rt.gossip != nil {
		rep.GossipRounds = gossipRounds
		for _, e := range rt.gossip.Engines() {
			st := e.Stats()
			rep.GossipMerged += st.Merged
			rep.GossipBytesPushed += st.BytesPushed
			rep.GossipBytesSuppressed += st.BytesSuppressed
			rep.GossipFullSyncs += st.FullSyncs
		}
	}
	if tc, ok := world.Caller().(*transport.TCPClient); ok && cfg.Lifecycle.Enabled() {
		st := tc.Stats()
		rep.Lifecycle = &LifecycleReport{
			Conns:            st.Conns,
			DialsCoalesced:   st.DialsCoalesced,
			BackoffFastFails: st.BackoffFastFails,
			BreakerTrips:     st.BreakerTrips,
			BreakerHalfOpens: st.BreakerHalfOpens,
			BreakerCloses:    st.BreakerCloses,
			BreakerFastFails: st.BreakerFastFails,
		}
	}
	rep.StormCalls = rt.stormCalls.Load()
	rep.StormErrors = rt.stormErrors.Load()
	rep.StormCoalesced = rt.stormCoalesced.Load()
	rep.StormFastFails = rt.stormFastFails.Load()
	// Read the clock here, on the run's own worker, before the deferred
	// teardown: how many of the close → FIN → EOF chain's delivery timers
	// fire before the last worker exits is up to the Go scheduler (see
	// load.run).
	rep.SimSeconds = clk.Elapsed().Seconds()
	return rep, nil
}

// auditSignatures applies Config.SigAudit's two assertions, adding what
// fails to the report's violations.
func (rep *Report) auditSignatures(replicas []*replica.Replica, pub ed25519.PublicKey) {
	fail := func(format string, args ...any) {
		rep.Check.Violations = append(rep.Check.Violations, fmt.Sprintf(format, args...))
		rep.Check.Pass = false
	}
	if rep.SigChecks == 0 {
		fail("signature audit: the client ran no ed25519 check in the whole run (%d verdicts reused)", rep.SigReused)
	}
	for _, r := range replicas {
		if _, correct := r.Behavior().(replica.Correct); !correct {
			continue
		}
		keys := r.Store().Keys()
		sort.Strings(keys)
		for _, key := range keys {
			e, _ := r.Store().Get(key)
			rep.StoredAudited++
			if !sv.Verify(pub, key, e.Value, e.Stamp, e.Sig) {
				fail("signature audit: correct server %d holds (%q, %q, %v) under a signature that does not verify", r.ID(), key, e.Value, e.Stamp)
			}
		}
	}
}

// LifecycleReport is the connection-lifecycle slice of the tcp-virtual
// client's transport counters, attached to a Report when Config.Lifecycle
// enables any feature. See transport.TCPStats for field semantics.
type LifecycleReport struct {
	Conns            uint64 `json:"conns"`
	DialsCoalesced   uint64 `json:"dials_coalesced"`
	BackoffFastFails uint64 `json:"backoff_fast_fails"`
	BreakerTrips     uint64 `json:"breaker_trips"`
	BreakerHalfOpens uint64 `json:"breaker_half_opens"`
	BreakerCloses    uint64 `json:"breaker_closes"`
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
}
