package transport

import (
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
	// call). A connection keeps one deadline alarm for all its calls, armed
	// at the oldest live call's deadline: one value per client makes the
	// deadlines monotone in send order. Under a SimClock each deadline is
	// part of the deterministic event order, which gives the harnesses
	// bounded-liveness over faults no prompt error can surface — a
	// corrupted length prefix, a reply whose id was flipped in flight —
	// without wall-clock deadlines.
	CallTimeout time.Duration
	// Lifecycle tunes the per-server connection lifecycle: pool size, dial
	// backoff and the circuit breaker. The zero value preserves the legacy
	// single-connection behavior exactly. Nothing probes an idle
	// connection: a stalled peer is found by the first call's CallTimeout.
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
	return c
}

var _ Transport = (*TCPClient)(nil)

// Stats returns a snapshot of the client's wire counters, aggregated over
// all its connections.
func (c *TCPClient) Stats() TCPStats {
	st := c.stats.snapshot()
	st.Codec = c.codecReg.total()
	return st
}

// Call implements Transport. Transport-level outcomes (dial failures, write
// errors, torn connections, timeouts) feed the server's circuit breaker;
// server-answered RPC errors count as reachability successes and surface
// as *RPCError carrying the wire's transient/permanent classification. A
// request the codec cannot encode fails permanently without touching either
// the connection or the breaker. Call is Start that may dial, plus a wait.
func (c *TCPClient) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	conn, st, err := c.acquire(to, true)
	if err != nil {
		return nil, err
	}
	return c.wait(ctx, st, conn, req)
}

// Start implements Starter: Call with the sink in place of the wait. Every
// call is pending. On a connection already established the frame is on its
// way when Start returns (a frameWriter's leader never waits on a socket),
// and the sink hears where the connection's frames are read (its read loop
// on a socket, the delivery alarm on a VirtualNet) for a reply or a
// failure, on the deadline alarm for the timeout, on ctx's watcher for a
// cancel. A breaker or backoff fast-fail completes before Start returns. A
// call that would dial or join a dial is Call on a worker.
func (c *TCPClient) Start(ctx context.Context, to quorum.ServerID, req any, sink Sink, tag int) (any, error, bool) {
	conn, st, err := c.acquire(to, false)
	switch {
	case err != nil:
		sink.Complete(tag, nil, err)
	case conn == nil:
		return callWorker{c, c.sched}.Start(ctx, to, req, sink, tag)
	default:
		c.send(ctx, st, conn, req, sink, tag)
	}
	return nil, nil, true
}

// wait sends a call (see send) and parks until its completion has run.
func (c *TCPClient) wait(ctx context.Context, st *serverState, conn *tcpConn, req any) (any, error) {
	w := &waiter{vtime.NewChan[callResult](c.sched, 1)}
	c.send(ctx, st, conn, req, w, 0)
	r := w.ch.Recv()
	return r.resp, r.err
}

// waiter is the sink of a call Call waits for.
type waiter struct{ ch vtime.Chan[callResult] }

type callResult struct {
	resp any
	err  error
}

// Complete implements Sink.
func (w *waiter) Complete(_ int, resp any, err error) { w.ch.Send(callResult{resp, err}) }

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

// Close closes all connections. Subsequent calls fail.
func (c *TCPClient) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, st := range c.states {
		st.closeAll()
	}
	return nil
}

// acquire resolves the server's lifecycle state and leases a pooled
// connection from it (see serverState.acquire: with mayDial false it may
// decline, returning no connection and no error).
func (c *TCPClient) acquire(to quorum.ServerID, mayDial bool) (*tcpConn, *serverState, error) {
	if c.closed.Load() {
		return nil, nil, ErrClosed
	}
	st, ok := c.states[to]
	if !ok {
		return nil, nil, fmt.Errorf("server %d: %w", to, ErrUnknownServer)
	}
	conn, err := st.acquire(mayDial)
	if conn == nil {
		return nil, nil, err
	}
	return conn, st, nil
}

// send registers a call on conn and writes its request frame. The sink
// hears exactly once, possibly before send returns, after the breaker accounting
// and the lease release (see tcpCall.complete). The call timeout, when
// positive, queues the call's deadline on the connection, and a cancellable
// ctx arms a completer; a request the codec cannot encode fails permanently
// without registering anything.
func (c *TCPClient) send(ctx context.Context, st *serverState, conn *tcpConn, req any, sink Sink, tag int) {
	call := &tcpCall{st: st, conn: conn, id: c.nextID.Add(1), sink: sink, tag: tag}
	bp := wire.GetBuffer()
	frame, err := conn.encode(*bp, call.id, req)
	if err != nil {
		wire.PutBuffer(bp)
		// The request never left this process: the connection and the calls
		// in flight on it are fine, and the failure says nothing about the
		// server.
		call.complete(neutral, nil, wire.PermanentError(fmt.Errorf("transport: encode: %w", err)))
		return
	}
	conn.mu.Lock()
	if conn.closed {
		conn.mu.Unlock()
		wire.PutBuffer(bp)
		call.complete(failed, nil, ErrClosed)
		return
	}
	conn.pending[call.id] = call
	if conn.alarm != nil {
		conn.deadlines.push(deadline{id: call.id, mark: c.clock.Mark(c.callTimeout)})
		if !conn.alarmSet {
			conn.rearmLocked()
		}
	}
	if ctx.Done() != nil {
		call.stop = context.AfterFunc(ctx, func() {
			// Cancellation proves nothing about the server.
			if conn.claim(call.id, true) {
				call.complete(neutral, nil, ctx.Err())
			}
		})
	}
	conn.mu.Unlock()
	conn.cc.countEncode(len(frame))
	err = conn.w.writeFrame(frame)
	*bp = frame[:0]
	wire.PutBuffer(bp)
	if err != nil && conn.claim(call.id, false) {
		call.complete(failed, nil, fmt.Errorf("transport: send: %w", err))
	}
}

// tcpCall is one call in flight on a connection. Exactly one completer
// claims it, by taking it out of the connection's pending table under
// tcpConn.mu — deliver (its reply), failAll (the connection failed), the
// deadline alarm, its ctx watcher or its failed send — and then, with no
// lock held, completes it.
type tcpCall struct {
	st   *serverState
	conn *tcpConn
	id   uint64
	sink Sink
	tag  int
	stop func() bool // deregisters the ctx watcher; nil without one
}

// verdict is what a call's outcome says about its server.
type verdict int8

const (
	answered verdict = iota // the server replied, perhaps with an RPC error
	failed                  // the connection failed or stalled: evict it
	neutral                 // nothing: a cancellation, or a request that never left
)

// complete settles a claimed call: it disarms its other completers, moves
// the breaker, evicts a failed connection, returns the lease and reports
// the outcome to the sink.
func (t *tcpCall) complete(v verdict, resp any, err error) {
	if t.stop != nil {
		t.stop()
	}
	switch v {
	case answered:
		t.st.recordSuccess()
	case failed:
		t.st.evict(t.conn)
		t.st.recordFailure()
	default:
		t.st.recordNeutral()
	}
	t.conn.unlease()
	t.sink.Complete(t.tag, resp, err)
}

// tcpConn is one multiplexed client connection.
type tcpConn struct {
	raw   net.Conn
	codec Codec
	w     *frameWriter
	stats *tcpCounters
	cc    *codecCounters
	reg   *codecRegistry

	// leases counts callers currently holding the connection: calls in
	// flight, and waiters a dial leased it for.
	leases atomic.Int64

	mu        sync.Mutex
	pending   map[uint64]*tcpCall // calls in flight, by request id
	abandoned map[uint64]struct{} // timed-out or cancelled calls whose reply may still come
	closed    bool

	// With a call timeout: the calls in send order, each with the mark its
	// timeout is due at (no call older than the oldest live one), and one
	// alarm, armed at the oldest live call's mark whenever there is one.
	alarm     *vtime.Alarm // nil without a call timeout
	deadlines fifo[deadline]
	armed     vtime.Mark // where the alarm is armed, if alarmSet
	alarmSet  bool
}

// deadline is a call's place in its connection's deadline queue.
type deadline struct {
	id   uint64
	mark vtime.Mark
}

func (c *tcpConn) lease()   { c.leases.Add(1) }
func (c *tcpConn) unlease() { c.leases.Add(-1) }

// load is the number of live leases (the pool grows only when every
// connection has at least one).
func (c *tcpConn) load() int64 { return c.leases.Load() }

func (c *tcpConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func newTCPConn(raw net.Conn, cl *TCPClient, cc *codecCounters) *tcpConn {
	c := &tcpConn{
		raw:       raw,
		codec:     cl.codec,
		w:         newFrameWriter(raw, &cl.stats),
		stats:     &cl.stats,
		cc:        cc,
		reg:       &cl.codecReg,
		pending:   make(map[uint64]*tcpCall),
		abandoned: make(map[uint64]struct{}),
	}
	if cl.callTimeout > 0 {
		c.alarm = vtime.NewAlarm(cl.clock, c.expire)
	}
	c.w.sock, c.w.sched = newSockWriter(raw), cl.sched
	readFrames(raw, &cl.stats, cl.sched, c.onFrame, c.failAll)
	return c
}

// encode appends id's request frame to buf. A request the closed binary
// codec cannot encode fails with the codec's error and writes nothing.
func (c *tcpConn) encode(buf []byte, id uint64, req any) ([]byte, error) {
	if c.codec != CodecBinaryFlate {
		return wire.AppendEnvelope(buf, wire.Envelope{ID: id, Payload: req})
	}
	frame, res, err := wire.AppendEnvelopeFlate(buf, wire.Envelope{ID: id, Payload: req})
	if err == nil {
		c.cc.countFlate(res)
	}
	return frame, err
}

// claim takes a pending call out of the table, reporting whether it was
// there: false means another completer claimed it first. An abandoned call
// (cancellation) may still be answered; its late reply is then discarded
// silently instead of being treated as a protocol violation.
func (c *tcpConn) claim(id uint64, abandon bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[id]; !ok {
		return false
	}
	delete(c.pending, id)
	if abandon {
		c.abandoned[id] = struct{}{}
	}
	return true
}

// onFrame decodes one reply frame and delivers it; false (an undecodable
// reply, or one deliver refuses) fails the connection.
func (c *tcpConn) onFrame(body []byte) bool {
	var reply wire.ReplyEnvelope
	var err error
	if c.codec == CodecBinaryFlate {
		reply, err = wire.DecodeReplyEnvelopeFlate(body)
	} else {
		reply, err = wire.DecodeReplyEnvelope(body)
	}
	c.cc.countDecode(len(body))
	return err == nil && c.deliver(reply)
}

// deliver completes the call a reply answers. A reply matching no pending
// or abandoned call means the stream is desynced or an id was corrupted in
// flight: the connection is failed (false return stops the reading).
func (c *tcpConn) deliver(reply wire.ReplyEnvelope) bool {
	c.mu.Lock()
	if call, ok := c.pending[reply.ID]; ok {
		delete(c.pending, reply.ID)
		c.pruneLocked()
		c.mu.Unlock()
		if reply.Err != "" {
			call.complete(answered, nil, &RPCError{Server: call.st.id, Kind: reply.ErrKind, Msg: reply.Err})
		} else {
			call.complete(answered, reply.Payload, nil)
		}
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

// pruneLocked drops settled calls from the head of the deadline queue, so a
// queue never holds a call older than the oldest live one. c.mu must be held.
func (c *tcpConn) pruneLocked() {
	for c.deadlines.len() > 0 {
		if _, live := c.pending[c.deadlines.front().id]; live {
			return
		}
		c.deadlines.pop()
	}
}

// rearmLocked arms the alarm at the oldest live call's mark, or leaves it
// idle when no call is live. c.mu must be held.
func (c *tcpConn) rearmLocked() {
	c.pruneLocked()
	if c.alarmSet = c.deadlines.len() > 0; c.alarmSet {
		c.armed = c.deadlines.front().mark
		c.alarm.ArmAt(c.armed)
	}
}

// expire is the deadline alarm's callback. If the alarm went off at the
// oldest live call's mark, that call times out: the connection is suspect
// (slow, stalled, or its framing desynced by a corrupted prefix), so the
// call is abandoned and the connection torn down, and the next call re-dials
// a clean stream. Otherwise the call it was armed for has settled, and it
// moves to the oldest live call's mark, which is later in the fire order:
// a fire that finds nothing due does nothing else.
func (c *tcpConn) expire() {
	c.mu.Lock()
	c.pruneLocked()
	if c.deadlines.len() == 0 || c.deadlines.front().mark != c.armed {
		c.rearmLocked()
		c.mu.Unlock()
		return
	}
	id := c.deadlines.pop().id
	call := c.pending[id]
	delete(c.pending, id)
	c.abandoned[id] = struct{}{}
	c.rearmLocked()
	c.mu.Unlock()
	call.complete(failed, nil, fmt.Errorf("server %d: %w", call.st.id, errCallTimeout))
}

// failAll closes the connection and fails every pending call.
func (c *tcpConn) failAll() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	calls := c.pending
	c.pending, c.abandoned = nil, nil
	if c.alarm != nil {
		c.alarm.Stop()
		c.deadlines, c.alarmSet = fifo[deadline]{}, false
	}
	c.raw.Close() // before w.close: unblocks a writer stuck in Write
	c.w.close()
	c.reg.close(c.cc)
	c.mu.Unlock()
	for _, call := range calls {
		call.complete(failed, nil, fmt.Errorf("server %d: %w", call.st.id, ErrClosed))
	}
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
