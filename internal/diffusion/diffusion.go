// Package diffusion implements the lazy update-propagation mechanism the
// paper pairs with probabilistic quorums (Section 1.1): "a system built with
// probabilistic quorum systems can be strengthened by a properly designed
// diffusion mechanism, which propagates updates to replicated data lazily,
// i.e., outside the critical path of client operations." Each replica
// periodically performs push-pull anti-entropy with a few random peers;
// once an update has diffused to every server, reads cannot miss it
// regardless of quorum choice, driving the effective ε toward zero for
// updates that are sufficiently dispersed in time.
//
// In the Byzantine setting the merge path must be guarded: a faulty peer can
// push fabricated entries. Installing a replica.Verifier (signature check,
// per [MMR99]) restricts diffusion to self-verifying data.
//
// The exchange is delta-shaped (the WAN formulation): each engine keeps two
// watermarks per peer — how far into its own store's adoption sequence the
// peer has acknowledged (push), and how far into the peer's sequence it has
// pulled — and a round carries only the entries adopted past those marks.
// First contact, membership churn, and watermark regression (a peer whose
// sequence went backwards, i.e. restarted) fall back to a full push, so
// convergence is never weaker than the textbook full-state exchange; it just
// stops paying full-state bytes every round. All watermark state lives on
// the initiator — the GossipDeltaRequest handler is stateless — so a lost
// reply only costs an idempotent retransmit, never a correctness gap.
package diffusion

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// Config configures a diffusion engine for one replica.
type Config struct {
	// Self is the replica this engine gossips on behalf of.
	Self quorum.ServerID
	// Peers is the initial peer set. The live set is maintained by the
	// engine (see SetPeers) and may diverge from this field under churn.
	Peers []quorum.ServerID
	// Transport delivers gossip RPCs.
	Transport transport.Transport
	// Store is the replica's local state, shared with its request handler.
	Store *replica.Store
	// Fanout is the number of peers contacted per round (default 1).
	Fanout int
	// Verifier, when set, validates entries received from peers before
	// they are merged (Byzantine-safe diffusion).
	Verifier replica.Verifier
	// Rand drives peer selection. Required.
	Rand *rand.Rand
	// Interval is the gossip period for Run (default 100ms).
	Interval time.Duration
	// Clock supplies the round pacing for Run. Nil means the wall clock;
	// under a vtime.SimClock the rounds tick in virtual time, so a
	// long-horizon diffusion run completes instantly and deterministically.
	Clock vtime.Clock
}

// Stats are cumulative engine counters, safe to read concurrently.
type Stats struct {
	// Rounds counts completed gossip rounds.
	Rounds uint64
	// Contacted counts successful peer exchanges.
	Contacted uint64
	// Failed counts peer exchanges that errored (crashed peers etc).
	Failed uint64
	// Merged counts entries adopted from peers.
	Merged uint64
	// Rejected counts entries refused by the verifier.
	Rejected uint64
	// FullSyncs counts pushes that carried the entire store: first
	// contact with a peer, or recovery after a watermark regression.
	FullSyncs uint64
	// Regressions counts peers observed with a store sequence behind our
	// pull watermark (restarted peers), each forcing a full re-push.
	Regressions uint64
	// EntriesPushed / EntriesSuppressed count entries sent per push vs
	// entries the old full-snapshot push would have sent but the delta
	// suppressed. BytesPushed / BytesSuppressed are the same accounting
	// in exact binary-codec payload bytes (wire.Item.EncodedSize).
	EntriesPushed     uint64
	EntriesSuppressed uint64
	BytesPushed       uint64
	BytesSuppressed   uint64
}

// peerSync is one peer's watermark pair (initiator-side delta state).
type peerSync struct {
	// pushed is our own store sequence the peer has acknowledged: entries
	// at or below it need not be re-sent. Zero means full push.
	pushed uint64
	// pulled is the peer's store sequence we have merged up to; sent as
	// GossipDeltaRequest.Since.
	pulled uint64
}

// Engine drives anti-entropy rounds for one replica.
type Engine struct {
	cfg   Config
	sched vtime.Sched

	mu    sync.Mutex // guards rng, peers, sync, sampleBuf, peerBuf
	rng   *rand.Rand
	peers []quorum.ServerID // current peer set (mutable under churn)
	// sync holds per-peer delta watermarks. Entries are dropped when the
	// peer leaves the set (SetPeers), so a departed-and-rejoined peer is
	// first contact again — its store may have been rebuilt.
	sync      map[quorum.ServerID]*peerSync
	sampleBuf []quorum.ServerID // Floyd sample scratch (selectPeers)
	peerBuf   []quorum.ServerID // selected-peer scratch, reused per round

	rounds     atomic.Uint64
	contacted  atomic.Uint64
	failed     atomic.Uint64
	merged     atomic.Uint64
	rejected   atomic.Uint64
	fullSyncs  atomic.Uint64
	regressed  atomic.Uint64
	entPushed  atomic.Uint64
	entSupp    atomic.Uint64
	bytePushed atomic.Uint64
	byteSupp   atomic.Uint64
}

// NewEngine validates cfg and returns an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Transport == nil {
		return nil, errors.New("diffusion: Config.Transport is required")
	}
	if cfg.Store == nil {
		return nil, errors.New("diffusion: Config.Store is required")
	}
	if cfg.Rand == nil {
		return nil, errors.New("diffusion: Config.Rand is required")
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	cfg.Clock = vtime.Or(cfg.Clock)
	e := &Engine{
		cfg:   cfg,
		sched: vtime.SchedOf(cfg.Clock),
		rng:   cfg.Rand,
		sync:  make(map[quorum.ServerID]*peerSync),
	}
	e.SetPeers(cfg.Peers)
	return e, nil
}

// Self returns the id this engine gossips on behalf of.
func (e *Engine) Self() quorum.ServerID { return e.cfg.Self }

// SetPeers replaces the engine's peer set (membership churn: servers
// joining or leaving mid-diffusion). The engine's own id is filtered out.
// Safe to call concurrently with Step; the new set takes effect from the
// next peer selection. Watermarks of departed peers are dropped, so a peer
// that leaves and rejoins is treated as first contact (full push) — its
// store may have been rebuilt from scratch while away.
func (e *Engine) SetPeers(peers []quorum.ServerID) {
	next := make([]quorum.ServerID, 0, len(peers))
	for _, p := range peers {
		if p != e.cfg.Self {
			next = append(next, p)
		}
	}
	e.mu.Lock()
	e.peers = next
	for id := range e.sync {
		keep := false
		for _, p := range next {
			if p == id {
				keep = true
				break
			}
		}
		if !keep {
			delete(e.sync, id)
		}
	}
	e.mu.Unlock()
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Rounds:            e.rounds.Load(),
		Contacted:         e.contacted.Load(),
		Failed:            e.failed.Load(),
		Merged:            e.merged.Load(),
		Rejected:          e.rejected.Load(),
		FullSyncs:         e.fullSyncs.Load(),
		Regressions:       e.regressed.Load(),
		EntriesPushed:     e.entPushed.Load(),
		EntriesSuppressed: e.entSupp.Load(),
		BytesPushed:       e.bytePushed.Load(),
		BytesSuppressed:   e.byteSupp.Load(),
	}
}

// exchangeResult carries one peer exchange from its worker back to the
// round's ordered merge phase.
type exchangeResult struct {
	reply wire.GossipDeltaReply
	ok    bool
	// sentSince is the pull watermark the request carried; pushedUpTo is
	// our own store sequence the push covered (the new push watermark on
	// success).
	sentSince  uint64
	pushedUpTo uint64
}

// Step performs one push-pull round: select Fanout random peers, push each
// the delta since its watermarks, merge whatever they return. The per-peer
// exchanges run concurrently on vtime-enrolled workers — one slow or
// byte-limited peer no longer stalls the whole round — but merges and
// watermark updates happen after the barrier, in peer-selection order, so
// the round stays deterministic under a SimClock regardless of reply
// arrival order. Peer failures are tolerated and counted; Step only returns
// an error if the context is done. Step is not safe for concurrent use with
// itself (rounds are sequential by construction: Run, Group.Step).
func (e *Engine) Step(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer e.rounds.Add(1)
	peers := e.selectPeers()
	if len(peers) == 0 {
		return nil
	}
	// Tag outgoing calls with this engine's id so per-link fault hooks (see
	// transport.LinkHook) observe true server-to-server links rather than
	// attributing gossip to an anonymous client.
	ctx = transport.WithSource(ctx, e.cfg.Self)
	results := make([]exchangeResult, len(peers))
	wg := vtime.NewWaitGroup(e.cfg.Clock)
	for i, peer := range peers {
		i, peer := i, peer
		wg.Add(1)
		e.sched.Go(func() {
			defer wg.Done()
			results[i] = e.exchange(ctx, peer)
		})
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, peer := range peers {
		r := results[i]
		if !r.ok {
			e.failed.Add(1)
			continue
		}
		e.contacted.Add(1)
		e.merge(r.reply.Entries)
		e.advanceWatermarks(peer, r)
	}
	return nil
}

// exchange pushes the delta for peer and returns its reply. It runs on a
// round worker; everything it touches is either immutable for the round,
// covered by a brief e.mu hold, or local to the worker.
func (e *Engine) exchange(ctx context.Context, peer quorum.ServerID) exchangeResult {
	e.mu.Lock()
	var pushed, pulled uint64
	if ps := e.sync[peer]; ps != nil {
		pushed, pulled = ps.pushed, ps.pulled
	}
	e.mu.Unlock()
	cur := e.cfg.Store.Seq()
	changes := e.cfg.Store.Changes(pushed, cur)
	req := wire.GossipDeltaRequest{Since: pulled}
	if len(changes) > 0 {
		req.Entries = make([]wire.Item, 0, len(changes))
	}
	var pushedBytes uint64
	for _, c := range changes {
		it := wire.Item{Key: c.Key, Value: c.Entry.Value, Stamp: c.Entry.Stamp, Sig: c.Entry.Sig}
		pushedBytes += uint64(it.EncodedSize())
		req.Entries = append(req.Entries, it)
	}
	// Account what the old full-snapshot push would have cost. The store
	// reads race concurrent writes, so clamp the differences at zero.
	fullEntries := uint64(e.cfg.Store.Len())
	fullBytes := uint64(e.cfg.Store.WireSize())
	e.entPushed.Add(uint64(len(req.Entries)))
	e.bytePushed.Add(pushedBytes)
	if n := uint64(len(req.Entries)); fullEntries > n {
		e.entSupp.Add(fullEntries - n)
	}
	if fullBytes > pushedBytes {
		e.byteSupp.Add(fullBytes - pushedBytes)
	}
	if pushed == 0 {
		e.fullSyncs.Add(1)
	}
	resp, err := e.cfg.Transport.Call(ctx, peer, req)
	if err != nil {
		return exchangeResult{}
	}
	reply, ok := resp.(wire.GossipDeltaReply)
	if !ok {
		return exchangeResult{}
	}
	return exchangeResult{reply: reply, ok: true, sentSince: pulled, pushedUpTo: cur}
}

// advanceWatermarks records a successful exchange. Watermarks only move on
// success — a lost reply leaves them put, costing nothing worse than an
// idempotent retransmit next round.
func (e *Engine) advanceWatermarks(peer quorum.ServerID, r exchangeResult) {
	e.mu.Lock()
	ps := e.sync[peer]
	if ps == nil {
		ps = &peerSync{}
		e.sync[peer] = ps
	}
	if r.reply.UpTo < r.sentSince {
		// The peer's sequence went backwards: it restarted with a fresh
		// store, so everything we ever pushed is gone. Reset the push
		// watermark; next round is a full push. (A peer that restarts
		// and races past our pull watermark before we gossip it again is
		// indistinguishable from a live peer — detecting that would need
		// a store-epoch field, i.e. a new wire tag. The harness's churn
		// path instead signals rejoin via SetPeers, which drops state.)
		ps.pushed = 0
		e.regressed.Add(1)
	} else {
		ps.pushed = r.pushedUpTo
	}
	ps.pulled = r.reply.UpTo
	e.mu.Unlock()
}

// Run gossips every Interval until ctx is cancelled. The pacing comes from
// Config.Clock: a fixed sleep between rounds rather than a ticker, so a
// round that overruns the interval delays the next round instead of
// bursting to catch up (the usual anti-entropy choice — rounds are cheap
// and missing a beat is harmless).
func (e *Engine) Run(ctx context.Context) {
	for {
		if err := e.cfg.Clock.SleepCtx(ctx, e.cfg.Interval); err != nil {
			return
		}
		if err := e.Step(ctx); err != nil {
			return
		}
	}
}

// selectPeers draws Fanout distinct peers with Floyd's O(k) sampler
// (quorum.SampleKInto) instead of materializing a full rng.Perm every
// round. Both scratch slices are engine-owned and reused: rounds are
// sequential, so the returned slice is live only until the next call.
func (e *Engine) selectPeers() []quorum.ServerID {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := e.cfg.Fanout
	if k > len(e.peers) {
		k = len(e.peers)
	}
	if k == 0 {
		return nil
	}
	e.sampleBuf = quorum.SampleKInto(e.rng, len(e.peers), k, e.sampleBuf)
	out := e.peerBuf[:0]
	for _, j := range e.sampleBuf {
		out = append(out, e.peers[j])
	}
	e.peerBuf = out
	return out
}

func (e *Engine) merge(items []wire.Item) {
	for _, it := range items {
		if e.cfg.Verifier != nil && !e.cfg.Verifier(it.Key, it.Value, it.Stamp, it.Sig) {
			e.rejected.Add(1)
			continue
		}
		if e.cfg.Store.Apply(it.Key, replica.Entry{Value: it.Value, Stamp: it.Stamp, Sig: it.Sig}) {
			e.merged.Add(1)
		}
	}
}

// Group runs one engine per replica and steps them together, which is how
// the experiment harness models synchronized gossip rounds. Replace is its
// one membership change (churn mid-diffusion): every engine's peer set is
// updated, so gossip keeps converging over the current members.
type Group struct {
	engines  []*Engine
	tr       transport.Transport
	fanout   int
	verifier replica.Verifier
	seed     int64
	clock    vtime.Clock
}

// NewGroup builds engines for every replica in reps over the given
// transport; an engine picks peers from the stream (seed, StreamDiffusion,
// its id). Under a vtime.SimClock clk the engines' parallel fanout workers
// enroll in the virtual-time scheduler; a plain goroutine there would be
// invisible to the quiescence detector and deadlock the simulation the
// moment a worker blocks on a virtual-network call. Pass nil (the wall
// clock) outside simulation.
func NewGroup(reps []*replica.Replica, tr transport.Transport, fanout int, verifier replica.Verifier, seed int64, clk vtime.Clock) (*Group, error) {
	g := &Group{tr: tr, fanout: fanout, verifier: verifier, seed: seed, clock: clk}
	if err := g.Replace(nil, reps); err != nil {
		return nil, err
	}
	return g, nil
}

// Engines exposes the group's engines.
func (g *Group) Engines() []*Engine { return g.engines }

// ids returns the current membership.
func (g *Group) ids() []quorum.ServerID {
	out := make([]quorum.ServerID, len(g.engines))
	for i, e := range g.engines {
		out[i] = e.Self()
	}
	return out
}

// refreshPeers pushes the current membership to every engine.
func (g *Group) refreshPeers() {
	ids := g.ids()
	for _, e := range g.engines {
		e.SetPeers(ids)
	}
}

// Step runs one synchronized round across all engines.
func (g *Group) Step(ctx context.Context) error {
	for _, e := range g.engines {
		if err := e.Step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Replace changes the membership mid-diffusion: the departed ids leave
// (ids that are not members are ignored), then the joined replicas enter,
// each with a new engine whose randomness derives from the group seed and
// the replica id, so churn stays deterministic. A whole churn wave is one
// call: the remaining engines forget the departed peers' watermarks once,
// so an id that rejoins is first contact again (its store is new), and
// every peer set refreshes once at the end — per-server calls would copy
// O(n²) ids per wave, which dominates wall time at population scale. A
// joined id must not be a member. Not safe for concurrent use with Step.
func (g *Group) Replace(departed []quorum.ServerID, joined []*replica.Replica) error {
	if len(departed) > 0 {
		gone := make(map[quorum.ServerID]bool, len(departed))
		for _, id := range departed {
			gone[id] = true
		}
		kept := g.engines[:0]
		for _, e := range g.engines {
			if !gone[e.Self()] {
				kept = append(kept, e)
			}
		}
		g.engines = kept
		g.refreshPeers()
	}
	for _, r := range joined {
		for _, e := range g.engines {
			if e.Self() == r.ID() {
				return fmt.Errorf("diffusion: server %d is already a group member", r.ID())
			}
		}
		eng, err := NewEngine(Config{
			Self:      r.ID(),
			Transport: g.tr,
			Store:     r.Store(),
			Fanout:    g.fanout,
			Verifier:  g.verifier,
			Clock:     g.clock,
			Rand:      quorum.NewRand(g.seed, quorum.StreamDiffusion, uint64(r.ID())),
		})
		if err != nil {
			return fmt.Errorf("diffusion: engine %d: %w", r.ID(), err)
		}
		g.engines = append(g.engines, eng)
	}
	g.refreshPeers()
	return nil
}

// StepOnly runs one gossip round for just the named members — the rejoin
// anti-entropy a replacement server performs when it comes up, rather than
// a global synchronized round. At population scale a global round is n
// full-store first-contact exchanges (the random Fanout peers almost never
// repeat, so delta watermarks never engage); the replacements are the only
// stores that actually need healing. Unknown ids are ignored.
func (g *Group) StepOnly(ctx context.Context, ids []quorum.ServerID) error {
	want := make(map[quorum.ServerID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for _, e := range g.engines {
		if !want[e.Self()] {
			continue
		}
		if err := e.Step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// RoundsToConverge steps the group until every store holds key with a stamp
// at least st, returning the number of rounds taken, or maxRounds+1 if it
// never converged.
func (g *Group) RoundsToConverge(ctx context.Context, key string, stamp uint64, maxRounds int) (int, error) {
	for round := 0; round <= maxRounds; round++ {
		if g.converged(key, stamp) {
			return round, nil
		}
		if err := g.Step(ctx); err != nil {
			return round, err
		}
	}
	if g.converged(key, stamp) {
		return maxRounds, nil
	}
	return maxRounds + 1, nil
}

func (g *Group) converged(key string, stamp uint64) bool {
	for _, e := range g.engines {
		entry, ok := e.cfg.Store.Get(key)
		if !ok || entry.Stamp.Counter < stamp {
			return false
		}
	}
	return true
}
