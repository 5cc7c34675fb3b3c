// Package transport connects quorum clients to replica servers.
//
// Two implementations are provided. MemNetwork is an in-process simulated
// network with injectable latency, message loss, partitions and server
// crashes; it is the substrate for the experiment harness, exactly as the
// paper's analysis assumes an abstract message-passing system. TCPClient and
// TCPServer (tcp_client.go, tcp_server.go; framing in tcp_frame.go) carry the
// same messages over real sockets for deployments.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
)

// Common transport errors. Callers match them with errors.Is.
var (
	// ErrUnknownServer indicates a call to a server id with no registered
	// handler or address.
	ErrUnknownServer = errors.New("transport: unknown server")
	// ErrCrashed indicates the destination server is crashed (simulated).
	ErrCrashed = errors.New("transport: server crashed")
	// ErrDropped indicates the simulated network lost the request or reply.
	ErrDropped = errors.New("transport: message dropped")
	// ErrPartitioned indicates the caller and destination are in different
	// partition groups.
	ErrPartitioned = errors.New("transport: network partitioned")
	// ErrClosed indicates the transport has been closed.
	ErrClosed = errors.New("transport: closed")
)

// Handler is the server side of the transport: replicas implement it.
// Handle may wait (sleep, take a contended lock for long, call out); a
// handler that can wait must not implement TryHandler, or must decline
// there whenever it might.
type Handler interface {
	Handle(ctx context.Context, req any) (any, error)
}

// TryHandler is an optional capability of a Handler: TryHandle answers the
// request like Handle iff it can do so without parking the calling
// goroutine. ok=false means "this would have to wait": nothing happened,
// the request was not looked at, use Handle. A transport that delivers by
// function call (MemNetwork) uses it to run a call on its caller's own
// goroutine instead of one handed to it for the purpose.
type TryHandler interface {
	TryHandle(ctx context.Context, req any) (resp any, ok bool, err error)
}

// HandlerFunc adapts a function to the Handler interface.
//
//pqslint:allow deadexport seam: transport and sim tests build handlers from closures
type HandlerFunc func(ctx context.Context, req any) (any, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, req any) (any, error) { return f(ctx, req) }

// Transport is the client side: it delivers one request to one server and
// returns its response.
type Transport interface {
	Call(ctx context.Context, to quorum.ServerID, req any) (any, error)
}

// TryCaller is an optional capability of a Transport: TryCall completes the
// call exactly as Call would — same errors, same effects — iff it can do so
// without parking the calling goroutine. ok=false means "this would have to
// wait": nothing happened (no fault hook consulted, no slot taken, no
// sequence number consumed), and a Call made next is indistinguishable from
// a Call made instead. Whether a call can park is something the link and
// the handler know and a caller can only guess, so the layers that know say
// so per call; a caller that fans out (register's gather) runs an accepted
// call on its own goroutine and hands only declined ones to a worker.
// Transports that always wait on a socket simply do not implement it.
type TryCaller interface {
	TryCall(ctx context.Context, to quorum.ServerID, req any) (resp any, ok bool, err error)
}

// Starter is an optional capability of a Transport: Start begins the call
// without waiting on any peer. false means it declined and did nothing, as a
// declined TryCall does. true means done runs exactly once, with what Call
// would have returned, possibly before Start returns, on whatever goroutine
// settles the call (a connection's read loop, a clock's timer); done must
// not block. So a call in flight is a registered completion — register's
// gather pushes it into the reply channel it selects on — not a goroutine.
type Starter interface {
	Start(ctx context.Context, to quorum.ServerID, req any, done func(resp any, err error)) bool
}

// ClientSource is the source id MemNetwork attributes to direct callers
// (clients) that did not tag their context with WithSource. Server-to-server
// traffic (e.g. diffusion) tags its calls so per-link fault hooks can tell
// links apart.
const ClientSource quorum.ServerID = -1

// sourceKey is the context key carrying a call's source id.
type sourceKey struct{}

// WithSource returns a context whose MemNetwork calls are attributed to the
// given source server (used by server-initiated traffic such as gossip, so
// fault hooks see true per-link identities).
func WithSource(ctx context.Context, from quorum.ServerID) context.Context {
	return context.WithValue(ctx, sourceKey{}, from)
}

// SourceFromContext returns the source id attached by WithSource, or
// ClientSource when the context carries none.
func SourceFromContext(ctx context.Context) quorum.ServerID {
	if v, ok := ctx.Value(sourceKey{}).(quorum.ServerID); ok {
		return v
	}
	return ClientSource
}

// CallFault is a LinkHook's verdict on one call. The zero value delivers the
// call untouched. Effects compose in field order: a dropped call never
// reaches the server; a duplicated call is delivered twice (the second
// reply is discarded, exercising idempotency); Delay postpones delivery —
// with concurrent calls in flight on a link this lets later calls overtake
// earlier ones (reordering), while a sequential caller observes only the
// added latency and shuffled reply arrival across its access set;
// ReplaceReq substitutes the delivered request (frame corruption);
// MutateReply rewrites the reply (or error) on the way back.
type CallFault struct {
	Drop        bool
	Duplicate   bool
	Delay       time.Duration
	ReplaceReq  any
	MutateReply func(resp any, err error) (any, error)
}

// LinkHook intercepts every MemNetwork call on its way to a server. It is
// consulted after partition and crash checks and before the built-in drop
// and latency simulation, once per call, with the caller's source id (a
// server id for WithSource-tagged traffic, ClientSource otherwise).
// Implementations must be safe for concurrent use; determinism is the
// hook's responsibility (see internal/chaos for a seed-deterministic one).
type LinkHook interface {
	FilterCall(from, to quorum.ServerID, req any) CallFault
}

// MemNetwork is a simulated network hosting any number of in-process
// servers. The zero value is not usable; construct with NewMemNetwork.
// All configuration methods are safe for concurrent use with Call: a
// setter's effect is visible to every call that starts after it returns;
// calls in flight finish under the view they started with.
type MemNetwork struct {
	// mu guards the configuration as the setters write it; a call takes it
	// only to rebuild a stale view.
	mu sync.Mutex
	// servers holds everything the network knows about one server id in one
	// record. Records are created on first mention and never removed
	// (Deregister resets one, keeping its call-sequence counter).
	servers map[quorum.ServerID]*memLink
	memSettings

	// view is the configuration as calls read it, an immutable copy; nil once
	// a setter has changed the original. Setters only invalidate and the next
	// call rebuilds, so n setters in a row cost one O(n) copy, not n.
	view   atomic.Pointer[memView]
	builds int // views built so far, under mu (tests count them)

	seed uint64
}

// memSettings is the network-wide half of the configuration.
type memSettings struct {
	dropProb float64
	minLat   time.Duration
	maxLat   time.Duration

	// hook, when non-nil, intercepts every call (fault injection; see
	// LinkHook).
	hook LinkHook

	// clock supplies simulated-latency sleeps and fault delays. The wall
	// clock by default; the sim and chaos harnesses install a
	// vtime.SimClock so latency becomes virtual (instant to execute,
	// deterministic to replay). See SetClock.
	clock vtime.Clock
}

// memView is what a call reads: one atomic load, one index, no lock.
type memView struct {
	links []memLink // by server id, up to the highest mentioned; see noLink
	memSettings
}

// memLink is what a call needs to know about its destination; a call reads
// it in place, in the view it loaded.
type memLink struct {
	handler Handler    // nil: not (or no longer) a member
	try     TryHandler // handler's TryHandler side, nil if it has none
	crashed bool
	group   int       // partition group; default 0
	lat     *latRange // overrides the network's latency range; nil = none

	// sem, when non-nil, caps concurrent in-service calls (see
	// SetServerConcurrency): a call holds one slot of its destination's
	// semaphore across the simulated latency and the handler, so latency
	// becomes service time and the server gets a finite throughput ceiling.
	sem chan struct{}

	// callSeq counts calls per destination: one counter per id, shared by
	// every copy of its link and kept across Deregister. Both the built-in
	// drop decision and the latency draw hash (seed, destination,
	// per-destination call count), so a run whose per-destination call
	// sequence is deterministic — sequential client operations, as in the
	// sim and chaos harnesses — replays its drop pattern AND its latency
	// schedule exactly from the seed, even though the calls themselves are
	// dispatched concurrently. (Which servers an operation calls never
	// depends on reply arrival order, only on the client's own seeded
	// sampling, so the per-destination counts are scheduling-independent.)
	// Counter-hashing replaced the PR 2 pooled-PRNG latency draws: it is
	// lock-free AND deterministic, which virtual-time hedging requires —
	// under a SimClock, latency decides which replies a hedged read
	// collects, so it must replay from the seed like drops always have.
	callSeq *atomic.Uint64
}

var noLink memLink // an id's link outside a view's links: no handler; never written

// latRange is a per-server latency override.
type latRange struct {
	min, max time.Duration
}

// NewMemNetwork returns an empty simulated network. seed fixes the fault
// randomness so that experiments are reproducible.
func NewMemNetwork(seed int64) *MemNetwork {
	return &MemNetwork{
		servers:     make(map[quorum.ServerID]*memLink),
		seed:        uint64(seed),
		memSettings: memSettings{clock: vtime.Wall()},
	}
}

// changed ends a setter: every method that writes the configuration takes
// mu and defers changed, which invalidates the view before it releases mu,
// so no call that starts after the setter returns can load the old one.
func (n *MemNetwork) changed() {
	n.view.Store(nil)
	n.mu.Unlock()
}

// rebuild publishes a fresh view for a call that found none. It runs under
// mu, so it copies a configuration no setter is halfway through, and calls
// that find the view stale together build it once.
func (n *MemNetwork) rebuild() *memView {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := n.view.Load()
	if v == nil {
		size := 0
		for id := range n.servers {
			size = max(size, int(id)+1)
		}
		v = &memView{links: make([]memLink, size), memSettings: n.memSettings}
		for id, s := range n.servers {
			if id >= 0 {
				v.links[id] = *s
			}
		}
		n.builds++
		n.view.Store(v)
	}
	return v
}

// serverLocked returns id's record, creating it on first mention. n.mu must
// be held.
func (n *MemNetwork) serverLocked(id quorum.ServerID) *memLink {
	s := n.servers[id]
	if s == nil {
		s = &memLink{callSeq: new(atomic.Uint64)}
		n.servers[id] = s
	}
	return s
}

// SetClock installs the time source for simulated latency and fault
// delays (nil restores the wall clock). Install before traffic flows; the
// harnesses set it once at cluster construction.
func (n *MemNetwork) SetClock(clk vtime.Clock) {
	n.mu.Lock()
	defer n.changed()
	n.clock = vtime.Or(clk)
}

// splitmix64 is the standard 64-bit finalizer used to decorrelate the
// per-call decision words derived from consecutive sequence numbers.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Register attaches a server handler under the given id, replacing any
// previous registration. Re-registering a departed id (see Deregister)
// models a server rejoining the membership. Server ids are non-negative.
func (n *MemNetwork) Register(id quorum.ServerID, h Handler) {
	if id < 0 {
		panic(fmt.Sprintf("transport: negative server id %d", id))
	}
	n.mu.Lock()
	defer n.changed()
	s := n.serverLocked(id)
	s.handler = h
	s.try, _ = h.(TryHandler)
}

// Deregister removes a server from the membership: subsequent calls to it
// fail with ErrUnknownServer, exactly as if the id had never been
// registered — its crash flag, partition group, latency override and
// concurrency cap are forgotten too, so a later Register rejoins a
// genuinely fresh member. Together with Register it models mid-run
// membership churn (leave/join). The call-sequence counter for the id is
// retained so a rejoin does not replay the departed server's fault pattern.
func (n *MemNetwork) Deregister(id quorum.ServerID) {
	n.mu.Lock()
	defer n.changed()
	if s := n.servers[id]; s != nil {
		*s = memLink{callSeq: s.callSeq}
	}
}

// SetLinkHook installs (or, with nil, removes) the fault-injection hook
// consulted on every call. See LinkHook.
func (n *MemNetwork) SetLinkHook(h LinkHook) {
	n.mu.Lock()
	defer n.changed()
	n.hook = h
}

// Crash marks a server as crashed: calls to it fail with ErrCrashed.
func (n *MemNetwork) Crash(id quorum.ServerID) {
	n.mu.Lock()
	defer n.changed()
	n.serverLocked(id).crashed = true
}

// Recover clears a server's crashed state.
func (n *MemNetwork) Recover(id quorum.ServerID) {
	n.mu.Lock()
	defer n.changed()
	if s := n.servers[id]; s != nil {
		s.crashed = false
	}
}

// CrashedCount returns the number of currently crashed servers.
func (n *MemNetwork) CrashedCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	crashed := 0
	for _, s := range n.servers {
		if s.crashed {
			crashed++
		}
	}
	return crashed
}

// SetDropProb sets the probability that any single call is lost.
func (n *MemNetwork) SetDropProb(p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("transport: drop probability %v outside [0,1]", p))
	}
	n.mu.Lock()
	defer n.changed()
	n.dropProb = p
}

// SetLatency sets the uniform per-call latency range. Zero disables
// simulated delay.
func (n *MemNetwork) SetLatency(min, max time.Duration) {
	if min < 0 || max < min {
		panic("transport: invalid latency range")
	}
	n.mu.Lock()
	defer n.changed()
	n.minLat, n.maxLat = min, max
}

// SetServerLatency overrides the per-call latency range for one server,
// making it a straggler (or a fast path) relative to SetLatency's global
// range. A zero max restores the global range for that server.
func (n *MemNetwork) SetServerLatency(id quorum.ServerID, min, max time.Duration) {
	if min < 0 || max < min {
		panic("transport: invalid latency range")
	}
	n.mu.Lock()
	defer n.changed()
	s := n.serverLocked(id)
	if max == 0 {
		s.lat = nil
		return
	}
	s.lat = &latRange{min: min, max: max}
}

// SetServerConcurrency caps every currently registered server at k calls
// in service at once (0 removes the cap). While the cap is in place a call
// occupies one of its destination's k slots across the simulated latency
// AND the handler, so the latency range set with SetLatency acts as per-call
// service time and each server's throughput ceiling is k/latency calls per
// second. This is the capacity model behind the multi-cell scaling
// benchmarks: without it an in-memory server is infinitely parallel and
// adding cells adds no measurable capacity.
func (n *MemNetwork) SetServerConcurrency(k int) {
	n.mu.Lock()
	defer n.changed()
	for _, s := range n.servers {
		s.sem = nil
		if k > 0 && s.handler != nil {
			s.sem = make(chan struct{}, k)
		}
	}
}

// SetPartition assigns servers to partition groups. Direct callers are in
// group 0: calls to a server in any other group fail with ErrPartitioned.
// Servers not mentioned stay in group 0.
func (n *MemNetwork) SetPartition(groups map[quorum.ServerID]int) {
	n.mu.Lock()
	defer n.changed()
	for _, s := range n.servers {
		s.group = 0
	}
	for id, g := range groups {
		n.serverLocked(id).group = g
	}
}

// ClearPartition heals all partitions.
func (n *MemNetwork) ClearPartition() { n.SetPartition(nil) }

// callMode is what a call may wait for: Call parks wherever it must, TryCall
// waits for nothing, Start waits only on the clock.
type callMode int8

const (
	parks callMode = iota
	noWait
	clockOnly
)

// admission is a call the network let through to its destination: the link,
// the request as the hook left it, the hook's verdict, the latency it waits
// before its handler runs, and the concurrency slot it holds, if any.
type admission struct {
	link  *memLink
	req   any
	fault CallFault
	clock vtime.Clock
	lat   time.Duration
	slot  chan struct{} // the caller releases it
	drop  bool          // the call drew a number (see TryCall)
}

// admit is the one way into the network for Call, TryCall and Start. It
// observes, in order: partition state, crash state, the installed LinkHook
// (if any), the destination's concurrency slot, simulated loss and
// simulated latency. ok is false when mode cannot take this link or handler;
// that is decided before the hook, the slot or the sequence counter is
// touched, so nothing happened. Otherwise a non-nil err ends the call.
func (n *MemNetwork) admit(ctx context.Context, to quorum.ServerID, req any, mode callMode, a *admission) (ok bool, err error) {
	v := n.view.Load()
	if v == nil {
		v = n.rebuild()
	}
	srv := &noLink
	if uint(to) < uint(len(v.links)) {
		srv = &v.links[to]
	}
	minLat, maxLat := v.minLat, v.maxLat
	if srv.lat != nil {
		minLat, maxLat = srv.lat.min, srv.lat.max
	}
	// Only time stands between a call on a link with latency or a hook and
	// its handler; a call on any other link is TryCall's, and a slot of a
	// capped server may have to be waited for.
	timed := v.hook != nil || maxLat > 0
	if mode != parks && (srv.sem != nil || timed != (mode == clockOnly)) {
		return false, nil
	}
	if srv.handler == nil {
		return true, ErrUnknownServer // bare: the caller knows the id, and this allocates nothing
	}
	if srv.group != 0 {
		return true, fmt.Errorf("server %d: %w", to, ErrPartitioned)
	}
	if srv.crashed {
		return true, fmt.Errorf("server %d: %w", to, ErrCrashed)
	}
	if mode != parks && srv.try == nil {
		return false, nil
	}
	*a = admission{link: srv, req: req, clock: v.clock, lat: minLat}
	if v.hook != nil {
		a.fault = v.hook.FilterCall(SourceFromContext(ctx), to, req)
		if a.fault.Drop {
			return true, fmt.Errorf("server %d: %w", to, ErrDropped)
		}
		if a.fault.ReplaceReq != nil {
			a.req = a.fault.ReplaceReq
		}
	}
	if srv.sem != nil {
		// Service-time accounting (SetServerConcurrency): hold one of the
		// destination's slots across the latency sleep and the handler.
		select {
		case srv.sem <- struct{}{}:
			a.slot = srv.sem
		case <-ctx.Done():
			return true, ctx.Err()
		}
	}
	if a.drop = v.dropProb > 0; a.drop || maxLat > minLat {
		// One decision word per call, counter-hashed: both the drop verdict
		// and the latency draw depend only on (seed, destination,
		// per-destination call count), so harnesses that keep the call
		// sequence deterministic replay drops and latency byte-for-byte
		// (see callSeq).
		seq := srv.callSeq.Add(1)
		base := splitmix64(n.seed ^ (uint64(to)+1)<<32 ^ seq)
		if a.drop && float64(splitmix64(base^0x0D)>>11)/(1<<53) < v.dropProb {
			return true, fmt.Errorf("server %d: %w", to, ErrDropped)
		}
		if maxLat > minLat {
			a.lat += time.Duration(splitmix64(base^0x1A) % uint64(maxLat-minLat+1))
		}
	}
	return true, nil
}

// handle delivers an admitted call with Handle — twice if the hook
// duplicated it, the second reply discarded: the visible effect is what
// idempotency (or its absence) makes it — and applies MutateReply.
func (a *admission) handle(ctx context.Context) (any, error) {
	resp, err := a.link.handler.Handle(ctx, a.req)
	if a.fault.Duplicate {
		a.link.handler.Handle(ctx, a.req) //nolint:errcheck // duplicate delivery, reply discarded
	}
	return a.fault.reply(resp, err)
}

// reply applies the hook's MutateReply, if it set one.
func (f *CallFault) reply(resp any, err error) (any, error) {
	if f.MutateReply != nil {
		return f.MutateReply(resp, err)
	}
	return resp, err
}

// Call implements Transport; see admit for what a call observes on its
// way. Simulated loss surfaces promptly as ErrDropped rather than stalling
// until the context deadline, which keeps large experiments fast;
// production callers treat ErrDropped like a timeout.
func (n *MemNetwork) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	var a admission
	_, err := n.admit(ctx, to, req, parks, &a)
	if a.slot != nil {
		defer func() { <-a.slot }()
	}
	if err != nil {
		return nil, err
	}
	for _, d := range [2]time.Duration{a.lat, a.fault.Delay} {
		if d > 0 {
			if err := a.clock.SleepCtx(ctx, d); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.handle(ctx)
}

// TryCall implements TryCaller: it is Call, on the caller's goroutine, for
// a call that nothing on the way can park — the link has no latency (global
// or per-server), no LinkHook (a hook may delay) and no concurrency slot to
// wait for, and the handler is a TryHandler that accepts. Everything else
// declines. A completed call saw the same partition, crash and
// unknown-server checks and the same counter-hashed drop verdict Call would
// have applied; a declined one leaves no trace.
func (n *MemNetwork) TryCall(ctx context.Context, to quorum.ServerID, req any) (any, bool, error) {
	var a admission
	if ok, err := n.admit(ctx, to, req, noWait, &a); !ok || err != nil {
		return nil, ok, err
	}
	if err := ctx.Err(); err != nil {
		return nil, true, err
	}
	resp, ok, err := a.link.try.TryHandle(ctx, a.req)
	if !ok && a.drop {
		// The handler would have to wait, and its call was already numbered
		// (it survived the drop verdict): hand the number back, so the Call
		// that follows draws the same one.
		a.link.callSeq.Add(^uint64(0))
	}
	return resp, ok, err
}

// Start implements Starter for exactly the calls whose only wait is time: a
// link with latency or a LinkHook, to a TryHandler, on a server with no
// concurrency cap (TryCall takes the links with nothing to wait for, a
// worker the capped ones). It runs Call's admission on the caller, then arms
// a timer for the latency and, when that fires, one for the hook's delay —
// the chain Call's two sleeps make, so each timer keeps its (deadline,
// sequence) place. The handler then runs where the timer fires (under a
// SimClock, on the scheduler) if TryHandle accepts and the call is not
// duplicated, and on a worker otherwise. A call cancelled in flight ends
// with ctx.Err() when its timer fires, without reaching the handler.
func (n *MemNetwork) Start(ctx context.Context, to quorum.ServerID, req any, done func(resp any, err error)) bool {
	a := new(admission)
	ok, err := n.admit(ctx, to, req, clockOnly, a)
	if !ok {
		return false
	}
	if err != nil {
		done(nil, err)
		return true
	}
	after := func(d time.Duration, fn func()) {
		if d > 0 {
			a.clock.AfterFunc(d, fn)
		} else {
			fn()
		}
	}
	after(a.lat, func() {
		after(a.fault.Delay, func() {
			if err := ctx.Err(); err != nil {
				done(nil, err)
				return
			}
			if !a.fault.Duplicate {
				if resp, ok, err := a.link.try.TryHandle(ctx, a.req); ok {
					done(a.fault.reply(resp, err))
					return
				}
			}
			vtime.SchedOf(a.clock).Go(func() { done(a.handle(ctx)) })
		})
	})
	return true
}

var (
	_ Transport = (*MemNetwork)(nil)
	_ TryCaller = (*MemNetwork)(nil)
	_ Starter   = (*MemNetwork)(nil)
)
