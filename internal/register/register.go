// Package register implements the paper's replicated-variable access
// protocols on top of a quorum system and a transport: the multi-reader
// single-writer protocol of Section 3.1 (benign failures), the verifiable
// read protocol of Section 4 ((b, ε)-dissemination systems, self-verifying
// data) and the threshold read protocol of Section 5.2 ((b, ε)-masking
// systems, arbitrary data).
//
// The protocols approximate a safe variable: Theorems 3.2, 4.2 and 5.2 show
// that a read not concurrent with any write returns the last written value
// with probability at least 1-ε. The sim package measures exactly this.
//
// A read keeps every reply exactly once, in arrival order, in one slice of
// readReply; selection, read repair and the masking vote all work from it.
// Dissemination reads verify on demand: max(V') is by definition the first
// reply that verifies when replies are visited in descending timestamp
// order, so selectDissemination visits them in that order and stops there.
// A read costs 1 + (distinct forged triples outranking the accepted stamp)
// signature checks rather than one per reply; replies at or below the
// accepted stamp are never examined, because a forgery down there is
// indistinguishable from a stale reply and cannot change the outcome. What a
// check costs is the registry's business: sv.Registry answers from its set
// of tuples already known to verify — which a writer feeds by signing
// through it — so across reads a value is verified once, and only a reply
// that has never verified here runs ed25519 (AccessStats.SigChecks and
// SigReused count the two).
//
// Where a call runs is not the client's to configure. A call that cannot
// park — the transport is a transport.TryCaller and says so for this call,
// as MemNetwork does on a link with no latency, fault hook or concurrency
// cap to a replica whose behaviour never waits — runs on the goroutine that
// issued the operation and its reply is consumed there, with no worker, no
// channel and no wake-up. A call that waits only for a peer or the clock —
// the transport is a transport.Starter that accepts it, as TCPClient does
// on an established connection — is started there and its completion
// delivers the reply to the operation's channel. Only a call both decline
// gets a worker of its own (a registered scheduler worker under a
// SimClock). One rule, both clocks; see access.go.
package register

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/sv"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// Mode selects which of the paper's three access protocols a client runs.
type Mode int

// Protocol modes.
const (
	// Benign is the Section 3.1 protocol: highest timestamp wins.
	Benign Mode = iota + 1
	// Dissemination is the Section 4 protocol: only verifiable (signed)
	// replies are considered, then highest timestamp wins.
	Dissemination
	// Masking is the Section 5.2 protocol: only values vouched for by at
	// least K servers are considered, then highest timestamp wins.
	Masking
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Benign:
		return "benign"
	case Dissemination:
		return "dissemination"
	case Masking:
		return "masking"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Errors returned by the client. Match with errors.Is.
var (
	// ErrNoReplies indicates no server in the chosen quorum answered.
	ErrNoReplies = errors.New("register: no replies from quorum")
	// ErrPartialWrite indicates fewer than the full quorum acknowledged a
	// write under RequireFullWrite.
	ErrPartialWrite = errors.New("register: write reached only part of the quorum")
)

// permanentNoReplies marks an ErrNoReplies outcome in which every member
// failure was classified permanent (codec mismatch, unsupported payload):
// re-sampling another quorum cannot help, so transport.IsPermanent matches
// it and RetryingClient stops retrying. It wraps the plain error, so
// errors.Is(err, ErrNoReplies) keeps matching.
type permanentNoReplies struct{ err error }

func (e *permanentNoReplies) Error() string   { return e.err.Error() }
func (e *permanentNoReplies) Unwrap() error   { return e.err }
func (e *permanentNoReplies) Permanent() bool { return true }

// noRepliesError wraps the zero-reply failure, marking it permanent when
// every member error carries a permanent classification.
func noRepliesError(err error, errs map[quorum.ServerID]error) error {
	if len(errs) == 0 {
		return err
	}
	for _, merr := range errs {
		if !transport.IsPermanent(merr) {
			return err
		}
	}
	return &permanentNoReplies{err: err}
}

// Options configures a Client.
type Options struct {
	// System supplies quorums; its built-in access strategy is what the
	// ε analysis assumes, so the client never deviates from it.
	System quorum.System
	// Mode selects the access protocol.
	Mode Mode
	// K is the masking read threshold (required when Mode == Masking;
	// use the K() of a core.Masking system).
	K int
	// Transport delivers RPCs.
	Transport transport.Transport
	// Rand drives the access strategy. Required.
	Rand *rand.Rand
	// Clock issues write timestamps. Required for writers.
	Clock *ts.Clock
	// Signer, when set, signs writes (self-verifying data). It must be a
	// well-formed key, and the one Registry holds for Clock's writer id if
	// Registry holds any: NewClient refuses a writer no reader could verify.
	Signer ed25519.PrivateKey
	// Registry verifies replies in Dissemination mode. Required for
	// dissemination readers. A writer's own signatures are noted in it, so
	// reading them back costs no check.
	Registry *sv.Registry
	// RequireFullWrite makes Write fail with ErrPartialWrite unless every
	// quorum member acknowledged. The paper's analysis assumes updates
	// reach the whole chosen quorum; leaving this false (best effort)
	// trades a further ε degradation for availability.
	RequireFullWrite bool
	// Tuning is the access-tuning block, declared and documented in package
	// config; every harness config embeds it too.
	config.Tuning
	// Time supplies timers, sleeps and latency measurement. Nil means the
	// wall clock. The sim and chaos harnesses install a vtime.SimClock,
	// which makes hedge timers deterministic and virtual-latency runs
	// complete in wall-clock milliseconds; every goroutine the client
	// spawns then registers with the SimClock scheduler.
	Time vtime.Clock
	// Cells partitions the keyspace across this many independent quorum
	// cells. Cell i is a full copy of the configured system over servers
	// [i*n, (i+1)*n) of the Transport, where n = System.N(); a consistent-
	// hash ring (internal/ring) routes each key to one cell, and all
	// protocol state — strategy, ε budget, hedging, stats — is per cell.
	// 0 or 1 means the classic single-cell client over servers [0, n).
	Cells int
	// RingVnodes is the virtual-node count per cell on the routing ring
	// (0 = ring.DefaultVnodes). Only meaningful with Cells > 1.
	RingVnodes int
}

// cell is the per-cell gather engine: it runs the paper's access protocols
// against ONE quorum cell — a universe of Options.System.N() servers
// addressed in cell-local ids [0, n). Client (router.go) routes every key
// to one cell; a single-cell client is a Client wrapping exactly one of
// these. All dispatch, hedging, spare promotion and drain state lives
// here, per cell and identity-blind, so the ε-preservation argument (and
// the epsblind analyzer) applies to each cell independently.
//
// It is safe for concurrent use, though the single-writer protocol
// requires that at most one client writes any given key.
type cell struct {
	opts Options

	// clock is Options.Time or the wall clock; sched is its scheduling
	// discipline: under a vtime.SimClock every spawn and blocking wait
	// follows the scheduler's rules, under the wall clock it is inert (see
	// access.go).
	clock vtime.Clock
	sched vtime.Sched

	mu   sync.Mutex // guards rng (not goroutine safe) and free
	rng  *rand.Rand
	free []*scratch // recycled per-operation memory (see access.go)

	// lat is the adaptive-hedge latency estimator; hedgeK its quantile
	// knob (Options.HedgeDeviations resolved).
	lat    latencyEstimator
	hedgeK float64

	// health is non-nil when the transport reports per-server reachability
	// (a breaker-enabled TCPClient): dispatch fails known-down members at
	// t=0 so the gather promotes spares immediately (see access.go).
	health transport.HealthReporter

	// try and start are the transport's optional ways to make a call
	// without a worker (a transport.TryCaller — MemNetwork — and a
	// transport.Starter — MemNetwork, TCPClient), nil when it lacks them:
	// dispatch offers each call to try, then to start, and hands only a
	// call both decline to a worker.
	try   transport.TryCaller
	start transport.Starter

	accessCounters
	drainWG *vtime.WaitGroup
}

// newCell validates the option combination and returns a per-cell engine.
// NewClient (router.go) is the public constructor; it calls this once per
// cell with an Offset transport and a cell-private rng.
func newCell(opts Options) (*cell, error) {
	if opts.System == nil {
		return nil, errors.New("register: Options.System is required")
	}
	if opts.Transport == nil {
		return nil, errors.New("register: Options.Transport is required")
	}
	if opts.Rand == nil {
		return nil, errors.New("register: Options.Rand is required")
	}
	switch opts.Mode {
	case Benign:
	case Dissemination:
		if opts.Registry == nil {
			return nil, errors.New("register: dissemination mode requires Options.Registry")
		}
	case Masking:
		if opts.K < 1 {
			return nil, fmt.Errorf("register: masking mode requires K >= 1, got %d", opts.K)
		}
		if opts.ReadRepair {
			return nil, errors.New("register: read repair is unsafe in masking mode (a fooled read would persist a fabricated value)")
		}
	default:
		return nil, fmt.Errorf("register: unknown mode %d", opts.Mode)
	}
	if err := checkSigner(opts); err != nil {
		return nil, err
	}
	if opts.Spares < 0 {
		return nil, fmt.Errorf("register: Spares %d must be non-negative", opts.Spares)
	}
	if opts.Spares > 0 && !spareCapable(opts.System) {
		return nil, fmt.Errorf("register: system %s cannot supply spares (no quorum.SpareSampler)", opts.System.Name())
	}
	if opts.HedgeDelay < 0 {
		return nil, fmt.Errorf("register: HedgeDelay %v must be non-negative", opts.HedgeDelay)
	}
	if opts.W < 0 {
		return nil, fmt.Errorf("register: W %d must be non-negative", opts.W)
	}
	if opts.HedgeDeviations < 0 {
		return nil, fmt.Errorf("register: HedgeDeviations %v must be non-negative", opts.HedgeDeviations)
	}
	if opts.AdaptiveHedge {
		if opts.Spares <= 0 {
			return nil, errors.New("register: AdaptiveHedge requires Spares > 0")
		}
		if opts.HedgeDelay <= 0 {
			return nil, errors.New("register: AdaptiveHedge requires a positive HedgeDelay bootstrap")
		}
	}
	clk := vtime.Or(opts.Time)
	k := opts.HedgeDeviations
	if k == 0 {
		k = defaultHedgeDeviations
	}
	c := &cell{
		opts:    opts,
		clock:   clk,
		sched:   vtime.SchedOf(clk),
		rng:     opts.Rand,
		hedgeK:  k,
		drainWG: vtime.NewWaitGroup(clk),
	}
	if hr, ok := opts.Transport.(transport.HealthReporter); ok {
		c.health = hr
	}
	c.try, _ = opts.Transport.(transport.TryCaller)
	c.start, _ = opts.Transport.(transport.Starter)
	return c, nil
}

// checkSigner rejects a writer none of whose writes any reader could verify:
// a Signer that is not a well-formed ed25519 private key (its public half
// must be the one its seed derives; sv.Registry.SignEntry relies on that),
// or one whose public half differs from the key Registry holds for Clock's
// writer id. Left alone, either is ε = 1 with no error anywhere. A registry
// that does not know the writer at all is fine: the key may be added later,
// and other readers have registries of their own.
func checkSigner(opts Options) error {
	if opts.Signer == nil {
		return nil
	}
	if len(opts.Signer) != ed25519.PrivateKeySize || !bytes.Equal(ed25519.NewKeyFromSeed(opts.Signer.Seed()), opts.Signer) {
		return errors.New("register: Options.Signer is not a well-formed ed25519 private key")
	}
	if opts.Registry == nil || opts.Clock == nil {
		return nil
	}
	writer := opts.Clock.Writer()
	if pub, ok := opts.Registry.Lookup(writer); ok && !bytes.Equal(pub, opts.Signer[ed25519.SeedSize:]) {
		return fmt.Errorf("register: Options.Registry holds a different public key for writer %d than Options.Signer's; no reader could verify this client's writes", writer)
	}
	return nil
}

// Mode returns the client's protocol mode.
func (c *cell) Mode() Mode { return c.opts.Mode }

// System returns the client's quorum system.
func (c *cell) System() quorum.System { return c.opts.System }

// WriteResult reports the outcome of a write.
type WriteResult struct {
	// Quorum is the access set chosen by the strategy. The caller owns the
	// slice (the client samples into a reused internal buffer and copies it
	// here, so concurrent operations can never rewrite a returned result).
	Quorum []quorum.ServerID
	// Acked lists the members (or promoted spares) that acknowledged before
	// the write completed; late acknowledgements land in Stats.
	Acked []quorum.ServerID
	// Errs maps failed members to their errors.
	Errs map[quorum.ServerID]error
	// Stamp is the timestamp assigned to this write.
	Stamp ts.Stamp
	// Promoted counts spares dispatched during this write.
	Promoted int
	// Early reports whether the write returned at its completion threshold
	// while calls were still outstanding (drained in the background).
	Early bool
}

// Write performs the Section 3.1 write protocol: choose a quorum, choose a
// timestamp greater than any previous one, install the value at every
// member. The value slice is not retained. With Options.W set, the write
// completes at W acknowledgements; with Options.Spares, failed or lagging
// members are hedged with spare servers.
func (c *cell) Write(ctx context.Context, key string, value []byte) (WriteResult, error) {
	if c.opts.Clock == nil {
		return WriteResult{}, errors.New("register: client has no clock; cannot write")
	}
	scratch, q, spares := c.pickWithSpares()
	defer c.recycle(scratch)
	stamp := c.opts.Clock.Next()
	val := make([]byte, len(value))
	copy(val, value)
	var sig []byte
	switch {
	case c.opts.Signer == nil:
	case c.opts.Registry != nil:
		// A writer that also reads has its registry note what it signed:
		// reading this write back then costs no signature check.
		sig = c.opts.Registry.SignEntry(c.opts.Signer, key, val, stamp)
	default:
		sig = sv.Sign(c.opts.Signer, key, val, stamp)
	}
	req := wire.WriteRequest{Key: key, Value: val, Stamp: stamp, Sig: sig}

	res := WriteResult{Quorum: append([]quorum.ServerID(nil), q...), Acked: make([]quorum.ServerID, 0, len(q)), Stamp: stamp}
	target := len(q)
	if !c.opts.RequireFullWrite && c.opts.W > 0 && c.opts.W < target {
		target = c.opts.W
	}
	out := c.gather(ctx, req, gatherSpec{
		quorum:  q,
		spares:  spares,
		scratch: scratch,
		onOK: func(id quorum.ServerID, _ any) error {
			res.Acked = append(res.Acked, id)
			return nil
		},
		decided: func(ok, _ int) bool { return ok >= target },
	})
	res.Errs = out.errs
	res.Promoted = out.promoted
	res.Early = out.early
	c.drain(out, nil) // late acks still improve durability; count them
	if len(res.Acked) == 0 {
		if out.ctxErr != nil {
			return res, out.ctxErr
		}
		return res, noRepliesError(fmt.Errorf("%w: all %d members failed", ErrNoReplies, len(q)), out.errs)
	}
	if c.opts.RequireFullWrite && len(res.Acked) < len(q) {
		return res, fmt.Errorf("%w: %d/%d acknowledged", ErrPartialWrite, len(res.Acked), len(q))
	}
	return res, nil
}

// ReadResult reports the outcome of a read.
type ReadResult struct {
	// Quorum is the access set chosen by the strategy. The caller owns the
	// slice (the client samples into a reused internal buffer and copies it
	// here, so concurrent operations can never rewrite a returned result).
	Quorum []quorum.ServerID
	// Found reports whether any value passed the mode's acceptance rule.
	// The masking protocol's ⊥ outcome is Found == false with nil error.
	Found bool
	// Value and Stamp are the accepted value-timestamp pair.
	Value []byte
	Stamp ts.Stamp
	// Replies counts servers that answered at all.
	Replies int
	// Vouchers counts servers that vouched for the accepted pair.
	Vouchers int
	// Discarded counts replies the acceptance rule rejected. Dissemination:
	// replies whose signature was checked and failed — every one of them
	// outranked the accepted stamp, i.e. exactly the replies that would
	// have fooled a benign read; replies at or below the accepted stamp are
	// never examined (at most 1 + distinct-forged-triples-above-it checks
	// per read). Masking: replies left under the K threshold.
	Discarded int
	// Repaired counts quorum members the read pushed the accepted value
	// back to (only with Options.ReadRepair).
	Repaired int
	// Promoted counts spares dispatched during this read.
	Promoted int
	// Early reports whether the read returned at its mode's completion
	// threshold while calls were still outstanding (drained in the
	// background).
	Early bool
}

// voteKey identifies a value-timestamp candidate in the masking vote count.
type voteKey struct {
	stamp ts.Stamp
	value string
}

// maskDecided reports whether the Section 5.2 acceptance rule is already
// decidable: some candidate holds at least k vouchers, and no rival with a
// higher timestamp — seen (current vouchers + outstanding < k) or unseen
// (outstanding < k) — can still reach the threshold.
func maskDecided(votes map[voteKey]int, k, outstanding int) bool {
	if k < 1 || outstanding >= k {
		return false
	}
	var best voteKey
	found := false
	for cand, n := range votes {
		if n >= k && (!found || best.stamp.Less(cand.stamp)) {
			best, found = cand, true
		}
	}
	if !found {
		return false
	}
	for cand, n := range votes {
		if best.stamp.Less(cand.stamp) && n+outstanding >= k {
			return false
		}
	}
	return true
}

// verdict is what a read knows about one reply's signature.
type verdict uint8

const (
	unverified verdict = iota // never checked (the zero value)
	valid
	invalid
)

// readReply is one server's answer to a read, kept once, in arrival order.
// verdict is only ever set by selectDissemination.
type readReply struct {
	id      quorum.ServerID
	msg     wire.ReadReply
	verdict verdict
}

// Read performs the mode's read protocol: query every member of a chosen
// quorum, filter replies by the mode's acceptance rule, return the
// highest-timestamped survivor. With Options.EagerRead it returns as soon
// as the acceptance rule is decidable; with Options.Spares, failed or
// lagging members are hedged with spare servers.
func (c *cell) Read(ctx context.Context, key string) (ReadResult, error) {
	scratch, q, spares := c.pickWithSpares()
	replies := scratch.replies[:0]
	defer func() {
		scratch.replies = replies
		c.recycle(scratch)
	}()
	req := wire.ReadRequest{Key: key}

	res := ReadResult{Quorum: append([]quorum.ServerID(nil), q...)}
	var votes map[voteKey]int // vote tally shared by maskDecided and selectMasking
	if c.opts.Mode == Masking {
		votes = make(map[voteKey]int)
	}
	target := len(q)
	var decided func(ok, outstanding int) bool
	if c.opts.EagerRead {
		decided = func(ok, outstanding int) bool {
			switch c.opts.Mode {
			case Benign:
				return ok >= target
			case Dissemination:
				// Verdicts are memoised in replies, so re-running the
				// selection as later replies arrive never re-judges one.
				return ok >= target && selectDissemination(key, replies, c.verifyEntry) >= 0
			case Masking:
				return maskDecided(votes, c.opts.K, outstanding)
			}
			return false
		}
	}
	out := c.gather(ctx, req, gatherSpec{
		quorum:  q,
		spares:  spares,
		scratch: scratch,
		onOK: func(id quorum.ServerID, resp any) error {
			msg, ok := resp.(wire.ReadReply)
			if !ok {
				return fmt.Errorf("register: unexpected reply type %T", resp)
			}
			replies = append(replies, readReply{id: id, msg: msg})
			if msg.Found && c.opts.Mode == Masking {
				votes[voteKey{stamp: msg.Stamp, value: string(msg.Value)}]++
			}
			return nil
		},
		decided: decided,
	})
	res.Replies = len(replies)
	res.Promoted = out.promoted
	res.Early = out.early
	if res.Replies == 0 {
		c.drain(out, nil)
		if out.ctxErr != nil {
			return res, out.ctxErr
		}
		return res, noRepliesError(fmt.Errorf("%w: quorum size %d", ErrNoReplies, len(q)), out.errs)
	}

	// best indexes the accepted reply; its signature is the one repair
	// spreads, so in dissemination mode that is a signature that verified.
	best := -1
	switch c.opts.Mode {
	case Benign:
		best = selectBenign(replies)
	case Dissemination:
		best = selectDissemination(key, replies, c.verifyEntry)
		for i := range replies {
			if replies[i].verdict == invalid {
				res.Discarded++
			}
		}
	case Masking:
		c.selectMasking(&res, votes)
	}
	var sig []byte
	if best >= 0 {
		acc := &replies[best].msg
		res.Found, res.Value, res.Stamp, sig = true, acc.Value, acc.Stamp, acc.Sig
		res.Vouchers = vouchers(replies, best)
	}
	if res.Found && c.opts.Clock != nil {
		// A writer that also reads keeps its clock ahead of what it saw.
		c.opts.Clock.Witness(res.Stamp)
	}
	var onLate func(callReply)
	if c.opts.ReadRepair && res.Found {
		push := wire.WriteRequest{Key: key, Value: res.Value, Stamp: res.Stamp, Sig: sig}
		c.repair(ctx, push, &res, replies, out.errs, out.leftover > 0)
		onLate = c.lateRepair(ctx, push)
	}
	c.drain(out, onLate)
	return res, nil
}

// verifyEntry is the registry's verdict on one reply tuple, counted: a
// verdict that ran ed25519 and one that reused an earlier check each go to
// their AccessStats counter.
func (c *cell) verifyEntry(key string, value []byte, stamp ts.Stamp, sig []byte) bool {
	ok, cost := c.opts.Registry.Judge(key, value, stamp, sig)
	switch cost {
	case sv.Checked:
		c.statSigChecks.Add(1)
	case sv.Reused:
		c.statSigReused.Add(1)
	}
	return ok
}

// vouchers counts the replies naming the same pair as replies[best].
func vouchers(replies []readReply, best int) int {
	acc := &replies[best].msg
	n := 0
	for i := range replies {
		if r := &replies[i].msg; r.Found && r.Stamp == acc.Stamp && bytes.Equal(r.Value, acc.Value) {
			n++
		}
	}
	return n
}

// selectBenign implements step 3 of the Section 3.1 read protocol: the
// index of the reply holding the pair with the highest timestamp (the first
// to arrive among equals), or -1 when no reply found anything.
func selectBenign(replies []readReply) int {
	best := -1
	for i := range replies {
		r := &replies[i].msg
		if r.Found && (best < 0 || replies[best].msg.Stamp.Less(r.Stamp)) {
			best = i
		}
	}
	return best
}

// selectDissemination implements steps 3-4 of the Section 4 read protocol —
// the highest-timestamped pair of the verifiable subset V' — without
// computing V': it visits found replies in descending timestamp order
// (arrival order among equals) and stops at the first whose signature is
// valid, which is max(V') by definition. It returns that reply's index, or
// -1 when nothing verifies, and records every verdict it reaches in
// replies, so a re-run over a grown slice judges only what is new: a reply
// byte-identical in (stamp, value, sig) to one already judged inherits its
// verdict, and a reply at or below the best valid stamp is never examined.
// One run therefore calls verify at most once per distinct triple
// outranking the accepted stamp, plus once for the accepted triple.
func selectDissemination(key string, replies []readReply, verify func(key string, value []byte, stamp ts.Stamp, sig []byte) bool) int {
	best := -1
	for i := range replies {
		if replies[i].verdict == valid && (best < 0 || replies[best].msg.Stamp.Less(replies[i].msg.Stamp)) {
			best = i
		}
	}
	for {
		next := -1
		for i := range replies {
			r := &replies[i]
			if !r.msg.Found || r.verdict != unverified {
				continue
			}
			if best >= 0 && !replies[best].msg.Stamp.Less(r.msg.Stamp) {
				continue
			}
			if next < 0 || replies[next].msg.Stamp.Less(r.msg.Stamp) {
				next = i
			}
		}
		if next < 0 {
			return best
		}
		r := &replies[next]
		for i := range replies {
			o := &replies[i]
			if o.verdict != unverified && o.msg.Stamp == r.msg.Stamp &&
				bytes.Equal(o.msg.Sig, r.msg.Sig) && bytes.Equal(o.msg.Value, r.msg.Value) {
				r.verdict = o.verdict
				break
			}
		}
		if r.verdict == unverified {
			r.verdict = invalid
			if verify(key, r.msg.Value, r.msg.Stamp, r.msg.Sig) {
				r.verdict = valid
			}
		}
		if r.verdict == valid {
			return next // everything still unverified is at or below it
		}
	}
}

// selectMasking implements steps 3-4 of the Section 5.2 read protocol:
// V' = pairs vouched for by at least K members; highest timestamp in V', or
// ⊥ (Found=false) when V' is empty. votes is the tally Read accumulated
// while collecting replies.
func (c *cell) selectMasking(res *ReadResult, votes map[voteKey]int) {
	for cand, n := range votes {
		if n < c.opts.K {
			res.Discarded += n
			continue
		}
		if !res.Found || res.Stamp.Less(cand.stamp) {
			res.Found = true
			res.Value = []byte(cand.value)
			res.Stamp = cand.stamp
			res.Vouchers = n
		}
	}
}
