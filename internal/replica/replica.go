package replica

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/ts"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// ErrSuppressed is returned by silent (fail-stop-on-read) behaviors.
var ErrSuppressed = errors.New("replica: reply suppressed")

// Verifier decides whether an incoming entry is acceptable. Used on the
// gossip path to keep Byzantine peers from injecting fabricated state when
// self-verifying data is in use; nil accepts everything (benign model).
type Verifier func(key string, value []byte, stamp ts.Stamp, sig []byte) bool

// Behavior customizes how a replica answers, enabling Byzantine fault
// injection. Correct servers use Correct{}.
type Behavior interface {
	// OnRead may rewrite the correct reply arbitrarily, or suppress it by
	// returning an error.
	OnRead(key string, correct wire.ReadReply) (wire.ReadReply, error)
	// OnWrite reports whether the write should be applied to the store.
	// Returning false with nil error acknowledges the write without
	// performing it (a lying server); returning an error refuses it.
	OnWrite(req wire.WriteRequest) (bool, error)
}

// Correct is the specified (non-faulty) behavior.
type Correct struct{}

// OnRead implements Behavior.
func (Correct) OnRead(_ string, correct wire.ReadReply) (wire.ReadReply, error) {
	return correct, nil
}

// OnWrite implements Behavior.
func (Correct) OnWrite(wire.WriteRequest) (bool, error) { return true, nil }

// Forger fabricates a value with an overwhelming timestamp on every read and
// discards writes. Against self-verifying data its replies carry no valid
// signature, so dissemination readers reject them; against a masking system
// it is defeated only by the threshold k. Colluding forgers share Value and
// Stamp so their replies count toward the same candidate.
type Forger struct {
	Value []byte
	Stamp ts.Stamp
	// Sig, if set, is attached to the forged reply (e.g. a stolen stale
	// signature, which will not verify against the forged value).
	Sig []byte
}

// OnRead implements Behavior.
func (f Forger) OnRead(_ string, _ wire.ReadReply) (wire.ReadReply, error) {
	return wire.ReadReply{Found: true, Value: f.Value, Stamp: f.Stamp, Sig: f.Sig}, nil
}

// OnWrite implements Behavior: acknowledges without storing.
func (f Forger) OnWrite(wire.WriteRequest) (bool, error) { return false, nil }

// Stale acknowledges writes without applying them, so the replica forever
// serves whatever it held when the behavior was installed. This models the
// "old value" adversary, which timestamps alone must defeat.
type Stale struct{}

// OnRead implements Behavior.
func (Stale) OnRead(_ string, correct wire.ReadReply) (wire.ReadReply, error) {
	return correct, nil
}

// OnWrite implements Behavior.
func (Stale) OnWrite(wire.WriteRequest) (bool, error) { return false, nil }

// BadSigEcho is the adversary that attacks signatures instead of values. It
// applies every write like a correct server, so it knows the writer's genuine
// newest pair for each key, and answers reads with exactly that pair under a
// well-formed 64-byte signature that does not verify. Such a reply names the
// right value at the right stamp and cannot be refused on its length: a
// reader must run — and fail — a real ed25519 check on it, must not take the
// pair on this reply's word, and must never let read repair spread its
// signature (replicas do not verify writes). Two flavours:
//
//   - garbage (Replay false): the genuine signature with bit Bit flipped.
//     Give colluders different bits and they share no triple.
//   - replay (Replay true): the genuine signature of the version the key held
//     before — right writer, right key, wrong tuple — and, at odd stamp
//     counters, that older version's value along with it, i.e. an old genuine
//     (value, signature) promoted to the newest stamp. A key with no older
//     version gets the garbage flavour.
//
// It never waits, so it answers TryHandle. Use one instance per replica.
type BadSigEcho struct {
	Bit    int
	Replay bool

	mu sync.Mutex
	// seen holds, per key, the newest write seen and the one it superseded
	// (the zero request until there is one).
	seen map[string][2]wire.WriteRequest
}

// OnRead implements Behavior.
func (b *BadSigEcho) OnRead(key string, correct wire.ReadReply) (wire.ReadReply, error) {
	if !correct.Found {
		return correct, nil
	}
	if b.Replay {
		b.mu.Lock()
		last, old := b.seen[key][0], b.seen[key][1]
		b.mu.Unlock()
		if old.Sig != nil && last.Stamp == correct.Stamp {
			correct.Sig = old.Sig
			if correct.Stamp.Counter%2 == 1 {
				correct.Value = old.Value
			}
			return correct, nil
		}
	}
	sig := make([]byte, ed25519.SignatureSize)
	copy(sig, correct.Sig)
	bit := b.Bit % (8 * len(sig))
	sig[bit/8] ^= 1 << (bit % 8)
	correct.Sig = sig
	return correct, nil
}

// OnWrite implements Behavior: the write is applied, and remembered.
func (b *BadSigEcho) OnWrite(req wire.WriteRequest) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.seen == nil {
		b.seen = make(map[string][2]wire.WriteRequest)
	}
	if last := b.seen[req.Key][0]; last.Stamp.Less(req.Stamp) {
		b.seen[req.Key] = [2]wire.WriteRequest{req, last}
	}
	return true, nil
}

// Delayed wraps a behavior with a fixed artificial delay before every
// answer, turning a live server into a straggler. It is the fault-injection
// counterpart of MemNetwork's per-server latency for transports (like TCP)
// that carry real traffic and cannot inject delay themselves. A nil Inner
// delays Correct behavior; a nil Clock sleeps on the wall clock, while the
// harnesses inject a vtime.SimClock so the delay is virtual.
//
// Delayed sleeps inside Handle, so a replica running it declines TryHandle:
// its calls are always handed to a worker, never run on the goroutine that
// is gathering replies (where the sleep would silence the hedge timer and
// the context).
type Delayed struct {
	Inner Behavior
	Delay time.Duration
	Clock vtime.Clock
}

func (d Delayed) inner() Behavior {
	if d.Inner == nil {
		return Correct{}
	}
	return d.Inner
}

// OnRead implements Behavior.
func (d Delayed) OnRead(key string, correct wire.ReadReply) (wire.ReadReply, error) {
	vtime.Or(d.Clock).Sleep(d.Delay)
	return d.inner().OnRead(key, correct)
}

// OnWrite implements Behavior.
func (d Delayed) OnWrite(req wire.WriteRequest) (bool, error) {
	vtime.Or(d.Clock).Sleep(d.Delay)
	return d.inner().OnWrite(req)
}

// Silent suppresses all replies (reads fail, writes are dropped), modelling
// a server that is up but mute — indistinguishable from a crash to clients.
type Silent struct{}

// OnRead implements Behavior.
func (Silent) OnRead(string, wire.ReadReply) (wire.ReadReply, error) {
	return wire.ReadReply{}, ErrSuppressed
}

// OnWrite implements Behavior.
func (Silent) OnWrite(wire.WriteRequest) (bool, error) { return false, ErrSuppressed }

// Replies are boxed into `any` once, not once per request (boxing a literal
// allocates): a write answers with one of the two write replies, an honest
// read with the box its Store made at adoption, or with readReplyAbsent.
var (
	writeReplyStored  any = wire.WriteReply{Stored: true}
	writeReplyIgnored any = wire.WriteReply{Stored: false}
	readReplyAbsent   any = wire.ReadReply{}
)

// Replica is one data server. It implements transport.Handler.
type Replica struct {
	id    quorum.ServerID
	store *Store

	// conf is what a request is answered under: it loads the pair once and
	// takes no lock. mu orders the setters, which publish a copy with one
	// field changed, so two of them cannot lose each other's field.
	mu   sync.Mutex
	conf atomic.Pointer[replicaConf]
}

type replicaConf struct {
	behavior Behavior
	verifier Verifier
}

// New returns a correct replica with an empty store.
func New(id quorum.ServerID) *Replica {
	r := &Replica{id: id, store: NewStore()}
	r.conf.Store(&replicaConf{behavior: Correct{}})
	return r
}

// ID returns the replica's server id.
func (r *Replica) ID() quorum.ServerID { return r.id }

// Store exposes the replica's local state (used by the diffusion engine and
// by tests).
func (r *Replica) Store() *Store { return r.store }

// SetBehavior swaps the replica's behavior (fault injection).
func (r *Replica) SetBehavior(b Behavior) {
	if b == nil {
		b = Correct{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := *r.conf.Load()
	c.behavior = b
	r.conf.Store(&c)
}

// Behavior returns the replica's current behavior.
func (r *Replica) Behavior() Behavior {
	b, _ := r.current()
	return b
}

// SetVerifier installs the entry verifier used on the gossip merge path.
func (r *Replica) SetVerifier(v Verifier) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := *r.conf.Load()
	c.verifier = v
	r.conf.Store(&c)
}

func (r *Replica) current() (Behavior, Verifier) {
	c := r.conf.Load()
	return c.behavior, c.verifier
}

// Handle implements transport.Handler.
func (r *Replica) Handle(_ context.Context, req any) (any, error) {
	behavior, verifier := r.current()
	return r.handle(behavior, verifier, req)
}

// TryHandle implements transport.TryHandler: it answers iff the replica's
// behaviour, snapshotted once, is one of this package's own that never
// wait. Delayed sleeps and a Behavior defined elsewhere might, so both
// decline — conservatively, because a call parked on its caller's gather
// goroutine would stall the very timers meant to route around it. (A
// Verifier is a predicate over bytes: it computes, it does not wait.)
func (r *Replica) TryHandle(_ context.Context, req any) (any, bool, error) {
	behavior, verifier := r.current()
	switch behavior.(type) {
	case Correct, Forger, Stale, Silent, *BadSigEcho:
	default:
		return nil, false, nil
	}
	resp, err := r.handle(behavior, verifier, req)
	return resp, true, err
}

// handle answers one request under the given behaviour snapshot.
func (r *Replica) handle(behavior Behavior, verifier Verifier, req any) (any, error) {
	switch m := req.(type) {
	case wire.ReadRequest:
		// Correct.OnRead returns its argument, so an honest reply is the
		// stored box itself; every other behaviour sees the pair unboxed.
		reply := r.store.reply(m.Key)
		if _, ok := behavior.(Correct); ok {
			return reply, nil
		}
		return behavior.OnRead(m.Key, reply.(wire.ReadReply))
	case wire.WriteRequest:
		apply, err := behavior.OnWrite(m)
		if err != nil {
			return nil, err
		}
		stored := false
		if apply {
			stored = r.store.Apply(m.Key, Entry{Value: m.Value, Stamp: m.Stamp, Sig: m.Sig})
		}
		if stored {
			return writeReplyStored, nil
		}
		return writeReplyIgnored, nil
	case wire.GossipRequest:
		return r.handleGossip(m, verifier), nil
	case wire.GossipDeltaRequest:
		return r.handleGossipDelta(m, verifier), nil
	case wire.PingRequest:
		return wire.PingReply{ServerID: int(r.id)}, nil
	default:
		// No retry can make an unsupported request type succeed; the marker
		// travels to clients as wire.ErrKindPermanent.
		return nil, wire.PermanentError(fmt.Errorf("replica %d: unknown request type %T", r.id, req))
	}
}

// handleGossip merges the initiator's entries into the local store (subject
// to the verifier) and returns entries where the local copy dominates the
// newest stamp the initiator offered for the key, or the initiator
// mentioned nothing, in adoption order: the same merged state gives the
// same reply bytes whatever the store's layout.
func (r *Replica) handleGossip(m wire.GossipRequest, verify Verifier) wire.GossipReply {
	offered := make(map[string]ts.Stamp, len(m.Entries))
	for _, e := range m.Entries {
		if st, ok := offered[e.Key]; !ok || st.Less(e.Stamp) {
			offered[e.Key] = e.Stamp
		}
		if verify != nil && !verify(e.Key, e.Value, e.Stamp, e.Sig) {
			continue
		}
		r.store.Apply(e.Key, Entry{Value: e.Value, Stamp: e.Stamp, Sig: e.Sig})
	}
	var reply wire.GossipReply
	for _, c := range r.store.Changes(0, r.store.Seq()) {
		if st, ok := offered[c.Key]; ok && !st.Less(c.Entry.Stamp) {
			continue
		}
		reply.Entries = append(reply.Entries, wire.Item{Key: c.Key, Value: c.Entry.Value, Stamp: c.Entry.Stamp, Sig: c.Entry.Sig})
	}
	return reply
}

// handleGossipDelta answers the watermark-bounded anti-entropy exchange: it
// merges the initiator's entries (subject to the verifier) and returns the
// local entries adopted in (Since, UpTo] of this store's own sequence. The
// handler keeps no per-peer state — the initiator owns the watermarks.
func (r *Replica) handleGossipDelta(m wire.GossipDeltaRequest, verify Verifier) wire.GossipDeltaReply {
	// Bound the reply at the sequence observed BEFORE merging, so entries
	// this very request delivered are not echoed straight back at their
	// sender; the initiator pulls anything adopted past cur next round.
	cur := r.store.Seq()
	for _, e := range m.Entries {
		if verify != nil && !verify(e.Key, e.Value, e.Stamp, e.Sig) {
			continue
		}
		r.store.Apply(e.Key, Entry{Value: e.Value, Stamp: e.Stamp, Sig: e.Sig})
	}
	since := m.Since
	if since > cur {
		// The initiator has pulled past our current sequence: we lost
		// state (restart). Answer with a full pull so it can re-sync.
		since = 0
	}
	changes := r.store.Changes(since, cur)
	reply := wire.GossipDeltaReply{UpTo: cur}
	if len(changes) > 0 {
		reply.Entries = make([]wire.Item, 0, len(changes))
	}
	for _, c := range changes {
		reply.Entries = append(reply.Entries, wire.Item{Key: c.Key, Value: c.Entry.Value, Stamp: c.Entry.Stamp, Sig: c.Entry.Sig})
	}
	return reply
}
