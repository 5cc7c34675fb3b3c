package chaos

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/replica"
	"pqs/internal/sim"
	"pqs/internal/sv"
	"pqs/internal/transport"
	"pqs/internal/ts"
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
	// address global server ids, so a scenario can partition between cells
	// or crash a whole cell. Transport picks the plane of the run's
	// sim.World; the link faults go to the Engine on mem and to the
	// VirtualNet on tcp-virtual, which reimplements them on byte streams
	// (see linkFaults). Latency is virtual on both planes.
	config.Topology

	// Name labels the run in reports.
	Name string
	// System is the quorum system under test.
	System quorum.System
	// Mode selects the access protocol. In Masking mode the read threshold
	// is System's K().
	Mode register.Mode
	// Ops is the number of write-then-read pairs. Each pair writes a fresh
	// version of a key from a rotating set of Keys keys and reads it back,
	// so staleness has measurable depth (CheckResult.StaleDepth).
	Ops int
	// Keys is the rotating key-set size (0 means 8; clamped to Ops). Run
	// refuses a negative value.
	Keys int
	// ReadLag, when positive, makes the read of pair t target the key
	// written at pair t-ReadLag (clamped at 0), so schedule events (churn
	// waves in particular) land between a key's write and its read, giving
	// reads genuine churn depth D > 0. Run refuses a negative ReadLag, and
	// one of Keys or more: the lagged key would be overwritten before its
	// read.
	ReadLag int
	// Seed fixes every random choice of the run. Two runs with equal
	// Config produce equal Histories.
	Seed int64
	// Schedule is the fault script, applied at pair boundaries. A run whose
	// schedule holds a Leave or Join action churns the membership, and is
	// judged, as a churning load run is, by the timed verdict: the checker
	// buckets eligible reads by churn depth D (their view stamps' distance)
	// and allows each bucket the time-decayed bound (CheckConfig.Timed).
	Schedule Schedule
	// Bound is the theorem's per-read ε for the system under test, tested
	// at confidence DefaultAlpha.
	Bound float64

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
	// SimSeconds is the virtual time the scenario covered (the run never
	// reads the wall clock).
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// The diffusion group's rounds and, summed over its engines, the
	// entries adopted from peers, the bytes the watermark deltas carried,
	// the bytes full-snapshot pushes would have added, and the pushes that
	// fell back to full state (first contact, rejoin, watermark regression).
	GossipRounds          uint64 `json:"gossip_rounds,omitempty"`
	GossipMerged          uint64 `json:"gossip_merged,omitempty"`
	GossipBytesPushed     uint64 `json:"gossip_bytes_pushed,omitempty"`
	GossipBytesSuppressed uint64 `json:"gossip_bytes_suppressed,omitempty"`
	GossipFullSyncs       uint64 `json:"gossip_full_syncs,omitempty"`
	// SigChecks and SigReused are a dissemination client's verdicts that
	// ran ed25519 and that were reused (register.AccessStats);
	// StoredAudited counts the stored entries Config.SigAudit verified.
	SigChecks     uint64 `json:"sig_checks,omitempty"`
	SigReused     uint64 `json:"sig_reused,omitempty"`
	StoredAudited int    `json:"stored_audited,omitempty"`
	// Lifecycle snapshots the client's connection-lifecycle counters when
	// Config.Lifecycle enables any feature under tcp-virtual. Like every
	// counter here, an aggregate: the determinism contract covers History.
	Lifecycle *LifecycleReport `json:"lifecycle,omitempty"`
	// StormCalls and StormErrors count the side traffic of every Storm
	// action the schedule fired, StormCoalesced and StormFastFails the storm
	// fleet's own dial coalescing and backoff fast-fails. Storm operations
	// never enter History.
	StormCalls     uint64 `json:"storm_calls,omitempty"`
	StormErrors    uint64 `json:"storm_errors,omitempty"`
	StormCoalesced uint64 `json:"storm_dials_coalesced,omitempty"`
	StormFastFails uint64 `json:"storm_backoff_fast_fails,omitempty"`
	// History is the full operation record (not in JSON: replay the seed).
	// HistorySHA256, the hex SHA-256 over its canonical op lines, is equal
	// across runs of one seed and commits that claim unchanged behaviour.
	History       History `json:"-"`
	HistorySHA256 string  `json:"history_sha256"`
}

// Run executes cfg on a Rig: it plays the schedule while driving the
// write-then-read pairs, and records and judges every operation. The
// report's Check carries the verdict; Run errors only on a Config it
// refuses (no System, Ops <= 0, Keys or ReadLag out of range) or a harness
// failure. Latency, hedge timers and slow-lorris delays take virtual time,
// and two runs of one Config record equal Histories and equal SimSeconds.
func Run(cfg Config) (*Report, error) {
	if cfg.Keys == 0 {
		cfg.Keys = 8
	}
	switch {
	case cfg.System == nil:
		return nil, errors.New("chaos: Config.System is required")
	case cfg.Ops <= 0:
		return nil, errors.New("chaos: Config.Ops must be positive")
	case cfg.Keys < 0 || cfg.ReadLag < 0:
		return nil, errors.New("chaos: Config.Keys and Config.ReadLag must not be negative")
	case cfg.ReadLag >= cfg.Keys:
		return nil, fmt.Errorf("chaos: Config.ReadLag %d is not below Keys %d: the lagged key is overwritten before its read", cfg.ReadLag, cfg.Keys)
	}
	// One seed fixes the link faults on either plane: the Engine's on mem,
	// the VirtualNet's under tcp-virtual.
	rep, secs, err := Simulate(config.Cluster{Cells: cfg.Cells, N: cfg.System.N(), Seed: cfg.Seed}, cfg.Transport,
		cfg.Seed+0x9E3779B9, sim.TCPOptions{Codec: cfg.WireCodec, Lifecycle: cfg.Lifecycle},
		func(rig *Rig) (*Report, error) { return run(cfg, rig) })
	if err != nil {
		return nil, err
	}
	rep.SimSeconds = secs
	return rep, nil
}

// runtime is a run's state, which the schedule's actions act on (its Rig's
// World and Gossip group, its plane's link faults), and its one client:
// Run's population of one, with no gap between its arrivals, so the pairs
// run back to back and schedule time is the pair index.
type runtime struct {
	*Rig
	cfg    Config
	faults linkFaults
	client *register.Client
	rec    *Recorder
	events []Event
	next   int     // the first event not yet fired
	rep    *Report // its History, gossip rounds and Storm counters as they grow
}

func (rt *runtime) Gap() time.Duration { return 0 }

// Step is pair t: the schedule's events due, the gossip round due, then
// the write and the (lagged) read.
func (rt *runtime) Step(t int) error {
	cfg, ctx := rt.cfg, context.Background()
	applied := rt.next
	for rt.next < len(rt.events) && rt.events[rt.next].T <= t {
		for _, act := range rt.events[rt.next].Acts {
			act.apply(rt)
		}
		rt.next++
	}
	if rt.next > applied {
		// An action's consequences run on other workers at this same
		// virtual instant (a reset notifies the client's connections, which
		// fail their connections, which the next acquire prunes). Let
		// them finish, or whether the next write leases a dead
		// connection or redials is the Go scheduler's choice.
		rt.Clock.Settle()
	}
	if rt.Gossip != nil && t > 0 && t%cfg.GossipEvery == 0 {
		// Diffusion interleaves with client traffic at pair
		// boundaries: deterministic, and adversarial enough — the
		// round runs under whatever partition/fault state the
		// schedule has currently installed.
		if err := rt.Gossip.Step(ctx); err != nil {
			return fmt.Errorf("chaos: gossip round at t=%d: %w", t, err)
		}
		rt.rep.GossipRounds++
	}
	key := fmt.Sprintf("k%d", t%cfg.Keys)
	value := fmt.Sprintf("v%d", t)
	view := rt.World.View()

	wr, werr := rt.client.Write(ctx, key, []byte(value))
	rt.rep.History = append(rt.rep.History, rt.rec.Record(rt.client, Op{
		Time: t, Kind: OpWrite, Key: key, Value: value, Stamp: wr.Stamp,
		Full:   werr == nil && len(wr.Acked) == len(wr.Quorum),
		Quorum: wr.Quorum,
		View:   view,
	}, werr))

	// With ReadLag the read targets the key written ReadLag pairs ago,
	// so churn events since that write give the read genuine depth D.
	readKey := fmt.Sprintf("k%d", max(t-cfg.ReadLag, 0)%cfg.Keys)
	rr, rerr := rt.client.Read(ctx, readKey)
	rt.rep.History = append(rt.rep.History, rt.rec.Record(rt.client, Op{
		Time: t, Kind: OpRead, Key: readKey,
		Value: string(rr.Value), Stamp: rr.Stamp, Found: rr.Found,
		Quorum: rr.Quorum,
		View:   view,
	}, rerr))
	return nil
}

// run is the scenario body, on rig's clock; cfg is validated.
func run(cfg Config, rig *Rig) (*Report, error) {
	cfg.Keys = min(cfg.Keys, cfg.Ops)
	clk, world := rig.Clock, rig.World
	rt := &runtime{Rig: rig, cfg: cfg, faults: rig.faults()}
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
		if err := rig.Diffuse(gossipFanout); err != nil {
			return nil, fmt.Errorf("chaos: diffusion group: %w", err)
		}
	}
	rt.client = client
	rt.rec = NewRecorder(cfg.Mode, cfg.System, cfg.Bound, cfg.Cells, cfg.Schedule.churns())
	rt.events = append([]Event(nil), cfg.Schedule...)
	sort.SliceStable(rt.events, func(i, j int) bool { return rt.events[i].T < rt.events[j].T })
	rep := &Report{
		Name: cfg.Name, Seed: cfg.Seed, System: cfg.System.Name(), Mode: cfg.Mode.String(), Ops: cfg.Ops,
		Schedule: cfg.Schedule.String(), Transport: world.Plane(), History: make(History, 0, 2*cfg.Ops),
	}
	rt.rep = rep
	if err := rig.Drive([]Client{rt}, cfg.Ops); err != nil {
		return nil, err
	}
	client.WaitDrained()
	rep.Check, rep.HistorySHA256 = rt.rec.Result(), rep.History.sha256()
	if cfg.Mode == register.Dissemination {
		st := client.Stats()
		rep.SigChecks, rep.SigReused = st.SigChecks, st.SigReused
		if cfg.SigAudit {
			rep.auditSignatures(world.Cluster.Replicas, writerKey.Public)
		}
	}
	if rt.Gossip != nil {
		for _, e := range rt.Gossip.Engines() {
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
