package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// errCallTimeout is returned by TCPClient.Call when CallTimeout elapses
// before the reply. It implements net.Error (Timeout() == true), so
// IsTransient classifies it like any socket timeout.
var errCallTimeout = &vnetError{msg: "transport: call timed out", timeout: true}

// TCPClientOptions configures a TCPClient beyond its codec.
type TCPClientOptions struct {
	// Codec selects the wire serialization (CodecBinary default); it must
	// match the servers'.
	Codec Codec
	// Clock supplies timers and the scheduling discipline (nil = wall).
	Clock vtime.Clock
	// Dial overrides how connections are established. It receives the
	// destination server id and its configured address; nil means
	// net.Dial("tcp", addr). The harnesses pass VirtualNet.Dialer here.
	Dial func(to quorum.ServerID, addr string) (net.Conn, error)
	// CallTimeout, when positive, bounds every Call on the client's clock:
	// a call that has not completed within it fails with a transient
	// timeout error and its connection is torn down (re-dialed on the next
	// call). Under a SimClock the timer is part of the deterministic event
	// order, which gives the harnesses bounded-liveness over faults no
	// prompt error can surface — a corrupted length prefix, a reply whose
	// id was flipped in flight — without wall-clock deadlines.
	CallTimeout time.Duration
	// Lifecycle tunes the per-server connection lifecycle: pool size, idle
	// reaping, health probes, dial backoff and the circuit breaker. The
	// zero value preserves the legacy single-connection behavior exactly.
	Lifecycle LifecycleConfig
}

// TCPClient implements Transport over TCP. It maintains a small pool of
// multiplexed connections per server (one by default), established lazily
// and re-dialed after failures, with optional dial coalescing, jittered
// redial backoff and a per-server circuit breaker (see LifecycleConfig).
// Requests written while another's Write is in progress share the next one.
type TCPClient struct {
	codec       Codec
	clock       vtime.Clock
	sched       vtime.Sched
	dial        func(to quorum.ServerID, addr string) (net.Conn, error)
	callTimeout time.Duration
	lifecycle   LifecycleConfig

	stats    tcpCounters
	codecReg codecRegistry

	// maintDone/maintStopped bracket the maintenance loop's lifetime; both
	// are nil when the lifecycle config needs no background maintenance.
	maintDone    chan struct{}
	maintStopped chan struct{}

	// states holds one entry per configured address, all built by the
	// constructor: the map is never written afterwards, so Call's lookup
	// takes no lock.
	states map[quorum.ServerID]*serverState
	closed atomic.Bool
	nextID atomic.Uint64
}

// NewTCPClientOpts returns a client that reaches server id at addrs[id],
// configured by o (codec, clock, dialer injection, call timeout; the zero
// value is the binary codec on the wall clock over real sockets).
func NewTCPClientOpts(addrs map[quorum.ServerID]string, o TCPClientOptions) *TCPClient {
	clk := vtime.Or(o.Clock)
	dial := o.Dial
	if dial == nil {
		dial = func(_ quorum.ServerID, addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}
	}
	c := &TCPClient{
		codec: o.Codec,
		clock: clk, sched: vtime.SchedOf(clk),
		dial: dial, callTimeout: o.CallTimeout,
		lifecycle: o.Lifecycle,
		states:    make(map[quorum.ServerID]*serverState, len(addrs)),
	}
	for id, a := range addrs {
		c.states[id] = &serverState{c: c, id: id, addr: a}
	}
	if c.lifecycle.maintenance() {
		c.maintDone = make(chan struct{})
		c.maintStopped = make(chan struct{})
		c.sched.Go(c.maintainLoop)
	}
	return c
}

// newWaitGroup returns a WaitGroup on the client's clock (virtual-time
// aware under a SimClock).
func (c *TCPClient) newWaitGroup() *vtime.WaitGroup { return vtime.NewWaitGroup(c.clock) }

var _ Transport = (*TCPClient)(nil)

// Stats returns a snapshot of the client's wire counters, aggregated over
// all its connections.
func (c *TCPClient) Stats() TCPStats {
	st := c.stats.snapshot()
	st.Codec = c.codecReg.total()
	return st
}

// ConnStats returns per-connection codec counters for the client's live
// connections.
func (c *TCPClient) ConnStats() []ConnCodecStats { return c.codecReg.perConn() }

// Call implements Transport. Transport-level outcomes (dial failures, write
// errors, torn connections, timeouts) feed the server's circuit breaker;
// server-answered RPC errors count as reachability successes and surface
// as *RPCError carrying the wire's transient/permanent classification. A
// request the codec cannot encode fails permanently without touching either
// the connection or the breaker.
func (c *TCPClient) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	conn, st, err := c.acquire(to)
	if err != nil {
		return nil, err
	}
	defer st.release(conn)
	id := c.nextID.Add(1)
	ch, err := conn.send(id, req)
	if err != nil {
		if IsPermanent(err) {
			// The request never left this process (see tcpConn.send): the
			// connection and the calls in flight on it are fine, and the
			// failure says nothing about the server.
			st.recordNeutral()
			return nil, err
		}
		st.evict(conn)
		st.recordFailure()
		return nil, err
	}
	var timeoutC <-chan time.Time
	if c.callTimeout > 0 {
		t := c.clock.NewTimer(c.callTimeout)
		defer t.Stop()
		timeoutC = t.C
	}
	reply := func(r wire.ReplyEnvelope, ok bool) (any, error) {
		if !ok {
			st.evict(conn)
			st.recordFailure()
			return nil, fmt.Errorf("server %d: %w", to, ErrClosed)
		}
		st.recordSuccess()
		if r.Err != "" {
			return nil, &RPCError{Server: to, Kind: r.ErrKind, Msg: r.Err}
		}
		return r.Payload, nil
	}
	unpark := c.sched.Park()
	select {
	case r, ok := <-ch:
		unpark()
		c.sched.NoteRecv()
		return reply(r, ok)
	case <-timeoutC:
		unpark()
		c.sched.NoteRecv()
		if !conn.abandon(id) {
			// A reply (or the conn's failure close) raced the timer into the
			// buffered channel: consume it — its tracked send must not
			// strand the scheduler's pending count — and honor it, so the
			// call's outcome does not depend on which case of a same-instant
			// race the select happened to pick.
			r, ok := <-ch
			c.sched.NoteRecv()
			return reply(r, ok)
		}
		// The conn is suspect (slow, stalled, or its framing desynced by a
		// corrupted prefix): the call is abandoned and the conn torn down so
		// the next call re-dials a clean stream.
		st.evict(conn)
		st.recordFailure()
		return nil, fmt.Errorf("server %d: %w", to, errCallTimeout)
	case <-ctx.Done():
		unpark()
		if !conn.abandon(id) {
			// The reply (or the conn's failure close) already claimed the
			// call: its tracked wake-up is in the buffered channel or about
			// to land there. Consume it so the send's NoteSend cannot
			// strand the scheduler's pending count — under a SimClock an
			// unconsumed tracked message freezes virtual time forever.
			<-ch
			c.sched.NoteRecv()
		}
		// Cancellation proves nothing about the server; release a held
		// half-open trial slot without moving the breaker.
		st.recordNeutral()
		return nil, ctx.Err()
	}
}

// ServerDown implements HealthReporter: true when the server's circuit
// breaker would reject a call right now with ErrServerDown.
func (c *TCPClient) ServerDown(id quorum.ServerID) bool {
	if c.lifecycle.BreakerThreshold <= 0 {
		return false
	}
	st := c.states[id]
	if st == nil {
		return false
	}
	return st.down(c.clock.Now(), &c.lifecycle)
}

// Close closes all connections and stops the maintenance loop. Subsequent
// calls fail.
func (c *TCPClient) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if c.maintDone != nil {
		c.sched.NoteSend() // the done close is one tracked wake-up
		close(c.maintDone)
		unpark := c.sched.Park()
		<-c.maintStopped
		unpark()
		c.sched.NoteRecv()
	}
	var first error
	for _, st := range c.states {
		if err := st.closeAll(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// acquire resolves the server's lifecycle state and leases a pooled
// connection from it (dialing as needed).
func (c *TCPClient) acquire(to quorum.ServerID) (*tcpConn, *serverState, error) {
	if c.closed.Load() {
		return nil, nil, ErrClosed
	}
	st, ok := c.states[to]
	if !ok {
		return nil, nil, fmt.Errorf("server %d: %w", to, ErrUnknownServer)
	}
	conn, err := st.acquire()
	if err != nil {
		return nil, nil, err
	}
	return conn, st, nil
}

// tcpConn is one multiplexed client connection.
type tcpConn struct {
	raw   net.Conn
	codec Codec
	w     *frameWriter
	stats *tcpCounters
	sched vtime.Sched
	cc    *codecCounters
	reg   *codecRegistry

	// leases counts callers currently holding the connection (calls in
	// flight plus health probes); lastUsed is the clock's UnixNano at the
	// last release. The maintenance loop reaps only unleased connections
	// idle past the configured timeout.
	leases   atomic.Int64
	lastUsed atomic.Int64

	mu        sync.Mutex
	pending   map[uint64]chan wire.ReplyEnvelope
	abandoned map[uint64]struct{}
	closed    bool
}

func (c *tcpConn) lease()   { c.leases.Add(1) }
func (c *tcpConn) unlease() { c.leases.Add(-1) }

// load is the number of live leases (the pool grows only when every
// connection has at least one).
func (c *tcpConn) load() int64 { return c.leases.Load() }

// touch stamps the idle clock; idleSince reads it.
func (c *tcpConn) touch(nanos int64) { c.lastUsed.Store(nanos) }
func (c *tcpConn) idleSince() int64  { return c.lastUsed.Load() }

func (c *tcpConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func newTCPConn(raw net.Conn, codec Codec, stats *tcpCounters, sched vtime.Sched, cc *codecCounters, reg *codecRegistry) *tcpConn {
	c := &tcpConn{
		raw:       raw,
		codec:     codec,
		w:         newFrameWriter(raw, stats),
		stats:     stats,
		sched:     sched,
		cc:        cc,
		reg:       reg,
		pending:   make(map[uint64]chan wire.ReplyEnvelope),
		abandoned: make(map[uint64]struct{}),
	}
	sched.Go(c.readLoop)
	return c
}

// send registers the call and writes its request frame. A request the
// closed binary codec cannot encode fails with a wire.PermanentError before
// anything is written, so the connection stays usable; any other error is a
// write failure and the caller must tear the connection down.
func (c *tcpConn) send(id uint64, req any) (chan wire.ReplyEnvelope, error) {
	ch := make(chan wire.ReplyEnvelope, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pending[id] = ch
	c.mu.Unlock()

	bp := wire.GetBuffer()
	var frame []byte
	var err error
	if c.codec == CodecBinaryFlate {
		var res wire.FlateResult
		frame, res, err = wire.AppendEnvelopeFlate(*bp, wire.Envelope{ID: id, Payload: req})
		if err == nil {
			c.cc.countFlate(res)
		}
	} else {
		frame, err = wire.AppendEnvelope(*bp, wire.Envelope{ID: id, Payload: req})
	}
	if err != nil {
		wire.PutBuffer(bp)
		c.forget(id, ch)
		return nil, wire.PermanentError(fmt.Errorf("transport: encode: %w", err))
	}
	c.cc.countEncode(len(frame))
	err = c.w.writeFrame(frame)
	*bp = frame[:0]
	wire.PutBuffer(bp)
	if err != nil {
		c.forget(id, ch)
		return nil, fmt.Errorf("transport: send: %w", err)
	}
	return ch, nil
}

// forget drops a pending call without expecting its reply (send failure:
// the request never went out). The call was registered before the write, so
// a read loop woken by the same reset that failed the write may already
// have claimed it in failAll; its tracked close is then in ch and nobody
// else will read it, so it is consumed here, as after a false abandon
// (failAll closes under c.mu: the receive cannot block).
func (c *tcpConn) forget(id uint64, ch chan wire.ReplyEnvelope) {
	c.mu.Lock()
	_, pending := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if !pending {
		<-ch
		c.sched.NoteRecv()
	}
}

// abandon drops a pending call whose reply may still arrive (timeout or
// context cancellation); a late reply matching it is discarded silently
// instead of being treated as a protocol violation. It reports whether the
// call was still pending: false means deliver or failAll already claimed
// it, so a (tracked) wake-up is in — or imminently landing in — the
// call's buffered channel and the caller must consume it.
func (c *tcpConn) abandon(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[id]; ok {
		delete(c.pending, id)
		c.abandoned[id] = struct{}{}
		return true
	}
	return false
}

func (c *tcpConn) readLoop() {
	br := bufio.NewReaderSize(c.raw, readBufSize)
	for {
		body, release, err := readFrame(br, c.stats)
		if err != nil {
			c.failAll()
			return
		}
		var reply wire.ReplyEnvelope
		if c.codec == CodecBinaryFlate {
			reply, err = wire.DecodeReplyEnvelopeFlate(body)
		} else {
			reply, err = wire.DecodeReplyEnvelope(body)
		}
		c.cc.countDecode(len(body))
		release()
		if err != nil {
			c.failAll()
			return
		}
		if !c.deliver(reply) {
			return
		}
	}
}

// deliver routes a reply to its waiting call. A reply matching no pending
// or abandoned call means the stream is desynced or an id was corrupted in
// flight: the connection is failed (false return stops the read loop).
func (c *tcpConn) deliver(reply wire.ReplyEnvelope) bool {
	c.mu.Lock()
	ch, ok := c.pending[reply.ID]
	if ok {
		delete(c.pending, reply.ID)
		c.mu.Unlock()
		c.sched.NoteSend()
		ch <- reply
		return true
	}
	if _, was := c.abandoned[reply.ID]; was {
		delete(c.abandoned, reply.ID)
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()
	c.failAll()
	return false
}

// failAll closes the connection and wakes every pending caller with a
// closed channel.
func (c *tcpConn) failAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for id, ch := range c.pending {
		c.sched.NoteSend() // the close below is one tracked wake-up
		close(ch)
		delete(c.pending, id)
	}
	c.abandoned = make(map[uint64]struct{})
	c.raw.Close() // before w.close: unblocks a leader stuck in Write
	c.w.close()
	c.reg.close(c.cc)
}

func (c *tcpConn) close() error {
	c.failAll()
	return nil
}

// IsTransient reports whether err is a transport-level failure that a
// client protocol may treat as a missing reply from one server (rather
// than a protocol violation): crashes, drops, partitions, closed
// transports, timeouts and network errors.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrCrashed) || errors.Is(err, ErrDropped) ||
		errors.Is(err, ErrPartitioned) || errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrServerDown) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr)
}
