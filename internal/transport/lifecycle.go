// Connection lifecycle management for TCPClient: bounded per-server
// connection pools, dial coalescing (singleflight) with clock-aware
// jittered exponential backoff, and a per-server circuit breaker
// (closed/open/half-open). None of it runs in the background: a client
// starts no goroutine of its own, and a stalled peer behind an idle pooled
// connection is found by the first call's CallTimeout, which evicts the
// connection and counts against the breaker.
//
// Everything here runs on the client's vtime.Clock: backoff windows and
// breaker cooldowns advance on virtual time under a SimClock, and the
// backoff jitter is counter-hashed (splitmix64 over seed, server id and
// attempt number), so the whole layer is deterministic inside the simulation
// harnesses.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// ErrServerDown is returned immediately — without dialing or waiting — when
// a server's circuit breaker is open: recent consecutive failures proved
// the server unreachable, and the breaker's cooldown has not yet elapsed.
// It is transient (the breaker half-opens on the clock), so quorum clients
// treat it exactly like a missing reply and promote spares at t=0.
var ErrServerDown = errors.New("transport: server down (circuit breaker open)")

// HealthReporter is implemented by transports that track per-server
// reachability (TCPClient with a breaker-enabled LifecycleConfig). Quorum
// clients consult it at dispatch time to fail known-down access-set members
// instantly instead of burning hedge budget on them.
type HealthReporter interface {
	// ServerDown reports whether a call to id right now would fail fast
	// with ErrServerDown.
	ServerDown(id quorum.ServerID) bool
}

// RPCError is a reply the server answered with: the RPC reached the server
// and came back carrying an application-level error. Kind is the server's
// own transient/permanent classification (wire.ErrKind*), carried on the
// wire, so clients can stop retrying what retrying cannot fix. An RPCError
// is evidence the server is alive: the circuit breaker does not count it.
type RPCError struct {
	Server quorum.ServerID
	Kind   byte
	Msg    string
}

// Error implements error with the same text the stringly path produced.
func (e *RPCError) Error() string { return fmt.Sprintf("server %d: %s", e.Server, e.Msg) }

// Permanent reports the server-side classification; IsPermanent matches it.
func (e *RPCError) Permanent() bool { return e.Kind == wire.ErrKindPermanent }

// IsPermanent reports whether err is classified permanent: retrying the
// call — or re-sampling a quorum around it — cannot succeed (codec
// mismatch, unsupported payload, malformed request). Errors carry the
// classification via a `Permanent() bool` method (see RPCError).
func IsPermanent(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// LifecycleConfig tunes TCPClient's per-server connection lifecycle. The
// zero value preserves the legacy behavior exactly: one connection per
// server, re-dialed eagerly on every failure, no backoff, no breaker.
type LifecycleConfig struct {
	// PoolSize caps the connections kept per server (minimum 1). The pool
	// grows one connection at a time, only when every live connection has a
	// call in flight.
	PoolSize int
	// DialBackoffBase, when positive, enables exponential backoff between
	// redial attempts: after the n-th consecutive dial failure no new dial
	// is attempted for base·2ⁿ⁻¹ (capped at 16×base, jittered into [d/2, d)
	// by a draw hashed from Seed, the server id and the attempt). Calls landing
	// inside the window fail fast with the last dial error.
	DialBackoffBase time.Duration
	// BreakerThreshold, when positive, enables the per-server circuit
	// breaker: this many consecutive transport-level failures (failed
	// dials, send errors, torn connections, call timeouts — never
	// server-answered RPC errors) trip it open.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls with
	// ErrServerDown before half-opening to admit one trial call (default
	// 1s). The trial's success closes the breaker; its failure re-opens it
	// for another cooldown.
	BreakerCooldown time.Duration
	// Seed feeds the counter-hashed backoff jitter.
	Seed int64
}

// Enabled reports whether any lifecycle feature beyond the legacy
// single-connection behavior is configured.
func (c LifecycleConfig) Enabled() bool {
	return c.PoolSize > 1 || c.DialBackoffBase > 0 || c.BreakerThreshold > 0
}

func (c LifecycleConfig) poolSize() int {
	if c.PoolSize < 1 {
		return 1
	}
	return c.PoolSize
}

func (c LifecycleConfig) cooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return time.Second
}

// breakerState is the circuit breaker's three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// dialResult is what a coalesced dial delivers to its waiters.
type dialResult struct {
	conn *tcpConn
	err  error
}

// serverState is one server's slice of the client: its connection pool,
// singleflight dial, backoff window and circuit breaker. All fields below
// mu are guarded by it; the pool's connections count their own leases
// atomically.
type serverState struct {
	c    *TCPClient
	id   quorum.ServerID
	addr string

	mu     sync.Mutex
	closed bool
	conns  []*tcpConn
	rr     uint64 // round-robin cursor over conns

	// Singleflight: at most one dial per server is in flight; racing
	// callers park on a waiter channel and share its outcome.
	dialing bool
	waiters []vtime.Chan[dialResult]

	// Backoff: consecutive dial failures widen a window during which
	// callers fail fast with the last dial error instead of re-dialing.
	dialFails    int
	backoffUntil time.Time
	lastDialErr  error

	// Breaker.
	brState    breakerState
	brFails    int // consecutive transport-level failures
	brOpenedAt time.Time
	brProbing  bool // a half-open trial call is in flight
}

// acquire returns a pooled connection to the server, dialing (or joining an
// in-flight dial) when the pool is empty or warrants growth. The returned
// connection is leased; the caller must release it via release(). With
// mayDial false a call that would dial or join a dial is declined — nil
// connection, nil error — and nothing happened, unless the breaker would
// reject it anyway: breaker and backoff fast-fails are returned as from a
// dialing acquire.
func (s *serverState) acquire(mayDial bool) (*tcpConn, error) {
	lc := &s.c.lifecycle
	now := s.c.clock.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	live := s.conns[:0]
	for _, cn := range s.conns {
		if !cn.isClosed() {
			live = append(live, cn)
		}
	}
	s.conns = live
	// Dial when the pool is empty, or when every connection is busy and the
	// pool may grow — unless inside the redial-backoff window, which either
	// falls back to an existing connection or fails fast.
	grow := len(s.conns) == 0 || (len(s.conns) < lc.poolSize() && !s.dialing && s.allBusyLocked())
	backoff := lc.DialBackoffBase > 0 && now.Before(s.backoffUntil)
	if grow && !mayDial && (s.dialing || !backoff) {
		// The breaker is asked without admitting: admission may claim the
		// half-open trial, which the dialing call that follows must get.
		down := s.downLocked(now, lc)
		s.mu.Unlock()
		if !down {
			return nil, nil
		}
		return nil, s.fastFail()
	}
	if !s.breakerAdmitLocked(now, lc) {
		s.mu.Unlock()
		return nil, s.fastFail()
	}
	if !grow {
		conn := s.rrLocked()
		conn.lease()
		s.mu.Unlock()
		return conn, nil
	}
	if s.dialing {
		// Singleflight: join the in-flight dial. The dialer takes the
		// waiters under s.mu, so its send cannot miss us, and it
		// leases the new connection once on our behalf before publishing,
		// so it counts as busy from the start — the connection arrives
		// already leased; leasing again here would leak a lease per waiter
		// and pin the connection busy forever.
		ch := vtime.NewChan[dialResult](s.c.sched, 1)
		s.waiters = append(s.waiters, ch)
		s.mu.Unlock()
		s.c.stats.dialsCoalesced.Add(1)
		r := ch.Recv()
		if r.err != nil {
			return nil, r.err
		}
		return r.conn, nil
	}
	if backoff {
		// Growth can wait: fall back to an existing connection if the pool
		// has one, else fail fast with the failure that opened the window.
		if len(s.conns) > 0 {
			conn := s.rrLocked()
			conn.lease()
			s.mu.Unlock()
			return conn, nil
		}
		err := s.lastDialErr
		s.mu.Unlock()
		s.c.stats.backoffFastFails.Add(1)
		s.recordNeutral() // release a half-open trial slot, if we held it
		return nil, fmt.Errorf("server %d: redial backoff: %w", s.id, err)
	}
	s.dialing = true
	s.mu.Unlock()
	return s.dial(now)
}

// fastFail counts and returns an open breaker's rejection.
func (s *serverState) fastFail() error {
	s.c.stats.breakerFastFails.Add(1)
	return fmt.Errorf("server %d: %w", s.id, ErrServerDown)
}

func (s *serverState) rrLocked() *tcpConn {
	s.rr++
	return s.conns[int(s.rr%uint64(len(s.conns)))]
}

func (s *serverState) allBusyLocked() bool {
	for _, cn := range s.conns {
		if cn.load() == 0 {
			return false
		}
	}
	return true
}

// dial performs the singleflight dial this state elected the caller to run,
// publishes the outcome to every coalesced waiter, and maintains the
// backoff window and breaker.
func (s *serverState) dial(now time.Time) (*tcpConn, error) {
	c := s.c
	raw, err := c.dial(s.id, s.addr)
	var conn *tcpConn
	if err == nil {
		c.stats.conns.Add(1)
		conn = newTCPConn(raw, c, c.codecReg.open())
	}

	s.mu.Lock()
	if err == nil && s.closed {
		// The client closed while we dialed; the pool no longer exists.
		conn.failAll()
		conn, err = nil, ErrClosed
	}
	s.dialing = false
	waiters := s.waiters
	s.waiters = nil
	if err == nil {
		s.conns = append(s.conns, conn)
		s.dialFails = 0
		s.backoffUntil = time.Time{}
		s.lastDialErr = nil
		conn.lease() // the dialer's own lease; released by its Call
		for range waiters {
			// One lease per waiter, taken on its behalf before the hand-off
			// (the waiter returns the conn without leasing again).
			conn.lease()
		}
	} else {
		s.dialFails++
		s.lastDialErr = err
		if d := s.backoffDelayLocked(); d > 0 {
			s.backoffUntil = now.Add(d)
		}
	}
	s.mu.Unlock()

	werr := err
	if werr != nil {
		werr = fmt.Errorf("server %d: %w", s.id, werr)
	}
	for _, ch := range waiters {
		ch.Send(dialResult{conn: conn, err: werr})
	}
	if err != nil {
		s.recordFailure()
		return nil, fmt.Errorf("server %d: %w", s.id, err)
	}
	return conn, nil
}

// backoffDelayLocked computes the next backoff window: exponential in the
// consecutive-failure count, capped at 16×base, and jittered into [d/2, d)
// by a counter-hashed draw (seed × server × attempt), so two runs from one
// seed replay the same redial schedule and two servers do not redial in
// lockstep.
func (s *serverState) backoffDelayLocked() time.Duration {
	base := s.c.lifecycle.DialBackoffBase
	if base <= 0 {
		return 0
	}
	max := 16 * base
	shift := s.dialFails - 1
	if shift > 20 {
		shift = 20
	}
	d := base << shift
	if d <= 0 || d > max {
		d = max
	}
	h := splitmix64(uint64(s.c.lifecycle.Seed) ^ 0x9E3779B97F4A7C15 ^ (uint64(s.id)+1)<<32 ^ uint64(s.dialFails))
	return d/2 + time.Duration(unitFloat(h)*float64(d/2))
}

// breakerAdmitLocked gates a call on the breaker, transitioning open →
// half-open when the cooldown has elapsed on the clock. In half-open state
// exactly one trial call is admitted at a time.
func (s *serverState) breakerAdmitLocked(now time.Time, lc *LifecycleConfig) bool {
	if lc.BreakerThreshold <= 0 {
		return true
	}
	switch s.brState {
	case breakerOpen:
		if now.Sub(s.brOpenedAt) < lc.cooldown() {
			return false
		}
		s.brState = breakerHalfOpen
		s.brProbing = true
		s.c.stats.breakerHalfOpens.Add(1)
		return true
	case breakerHalfOpen:
		if s.brProbing {
			return false
		}
		s.brProbing = true
		return true
	default:
		return true
	}
}

// recordFailure counts one transport-level failure (failed dial, send
// error, torn connection, call timeout) against the breaker.
func (s *serverState) recordFailure() {
	lc := &s.c.lifecycle
	if lc.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	s.brFails++
	switch s.brState {
	case breakerClosed:
		if s.brFails >= lc.BreakerThreshold {
			s.brState = breakerOpen
			s.brOpenedAt = s.c.clock.Now()
			s.c.stats.breakerTrips.Add(1)
		}
	case breakerHalfOpen:
		s.brState = breakerOpen
		s.brOpenedAt = s.c.clock.Now()
		s.brProbing = false
		s.c.stats.breakerTrips.Add(1)
	}
	s.mu.Unlock()
}

// recordSuccess counts a transport-level success: the server answered
// (even with an application error), so consecutive-failure tracking resets
// and a half-open trial closes the breaker.
func (s *serverState) recordSuccess() {
	lc := &s.c.lifecycle
	if lc.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	s.brFails = 0
	if s.brState == breakerHalfOpen {
		s.brState = breakerClosed
		s.brProbing = false
		s.c.stats.breakerCloses.Add(1)
	}
	s.mu.Unlock()
}

// recordNeutral resolves a call that proved nothing about the server
// (context cancellation, backoff fast-fail): it releases a held half-open
// trial slot without moving the state machine.
func (s *serverState) recordNeutral() {
	lc := &s.c.lifecycle
	if lc.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	s.brProbing = false
	s.mu.Unlock()
}

// evict removes a failed connection from the pool and closes it.
func (s *serverState) evict(conn *tcpConn) {
	s.mu.Lock()
	for i, cn := range s.conns {
		if cn == conn {
			s.conns = append(s.conns[:i], s.conns[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	conn.failAll()
}

// down reports whether a call to the server right now would fail fast with
// ErrServerDown (TCPClient.ServerDown delegates here).
func (s *serverState) down(now time.Time, lc *LifecycleConfig) bool {
	if lc.BreakerThreshold <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.downLocked(now, lc)
}

// downLocked is down with s.mu held.
func (s *serverState) downLocked(now time.Time, lc *LifecycleConfig) bool {
	switch s.brState {
	case breakerOpen:
		// After the cooldown the next call is admitted as the half-open
		// trial, so the server no longer counts as down.
		return now.Sub(s.brOpenedAt) < lc.cooldown()
	case breakerHalfOpen:
		return s.brProbing
	default:
		return false
	}
}

// closeAll tears the state down: subsequent acquires fail, pooled
// connections close. In-flight dials observe closed at publish time.
func (s *serverState) closeAll() {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, cn := range conns {
		cn.failAll()
	}
}
