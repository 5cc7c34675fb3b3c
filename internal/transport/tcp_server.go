package transport

import (
	"context"
	"fmt"
	"net"
	"sync"

	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// TCPOptions configures a TCPServer beyond its codec.
type TCPOptions struct {
	// Codec selects the wire serialization (CodecBinary default).
	Codec Codec
	// Clock supplies the scheduling discipline. Nil means the wall clock;
	// a vtime.SimClock enrolls every server goroutine (accept loop, socket
	// read loops, the goroutines of requests that may park) in the
	// virtual-time scheduler, which is what lets the real data plane run
	// inside the deterministic harnesses (see VirtualNet).
	Clock vtime.Clock
}

// TCPServer serves a Handler over a listener using framed wire.Envelope
// messages (binary codec by default; see ListenTCPCodec). Each accepted
// connection is multiplexed: requests are handled concurrently and replies
// are written back tagged with the request id, so a single client connection
// can have many calls in flight. Replies written while another reply's
// Write is in progress share the next one (see frameWriter).
type TCPServer struct {
	handler  Handler
	try      TryHandler // handler's TryHandler side, nil if it has none
	listener net.Listener
	codec    Codec
	clock    vtime.Clock
	sched    vtime.Sched

	// baseCtx is the root of every per-connection context; Close cancels it,
	// so in-flight handlers observe shutdown instead of running on past it.
	baseCtx   context.Context
	cancelCtx context.CancelFunc

	stats    tcpCounters
	codecReg codecRegistry

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     *vtime.WaitGroup
}

// ListenTCPCodec starts serving h on addr (e.g. "127.0.0.1:0") with codec.
// Clients must dial with the same codec. Close shuts the server down and
// waits for connection goroutines to finish.
func ListenTCPCodec(addr string, h Handler, codec Codec) (*TCPServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return ServeListener(l, h, TCPOptions{Codec: codec}), nil
}

// ServeListener runs the TCP server stack on an existing listener — a real
// socket or a VirtualNet listener. This is the injection point that lets
// the data plane (framing, codec, frame writer, request dispatch) run on
// virtual-time byte streams inside the harnesses.
func ServeListener(l net.Listener, h Handler, o TCPOptions) *TCPServer {
	clk := vtime.Or(o.Clock)
	ctx, cancel := context.WithCancel(context.Background())
	s := &TCPServer{
		handler: h, listener: l, codec: o.Codec,
		clock: clk, sched: vtime.SchedOf(clk),
		baseCtx: ctx, cancelCtx: cancel,
		conns: make(map[net.Conn]struct{}),
		wg:    vtime.NewWaitGroup(clk),
	}
	s.try, _ = h.(TryHandler)
	s.wg.Add(1)
	s.sched.Go(s.acceptLoop)
	return s
}

// Addr returns the listener's address, useful with port 0.
func (s *TCPServer) Addr() string { return s.listener.Addr().String() }

// Codec returns the codec the server speaks.
func (s *TCPServer) Codec() Codec { return s.codec }

// Stats returns a snapshot of the server's wire counters.
func (s *TCPServer) Stats() TCPStats {
	st := s.stats.snapshot()
	st.Codec = s.codecReg.total()
	return st
}

// ConnStats returns per-connection codec counters for the server's live
// connections (the admin endpoint surfaces these).
func (s *TCPServer) ConnStats() []ConnCodecStats { return s.codecReg.perConn() }

// Close stops the listener, cancels the context of every in-flight request,
// closes open connections and waits for all server goroutines to exit.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancelCtx()
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.stats.conns.Add(1)
		s.serveConn(conn)
	}
}

// serveConn starts serving conn (see readFrames) and returns.
func (s *TCPServer) serveConn(conn net.Conn) {
	// Every request on this connection runs under a context cancelled when
	// the connection tears down or the server closes, so in-flight handlers
	// cannot outlive either.
	ctx, cancel := context.WithCancel(s.baseCtx)
	w := newFrameWriter(conn, &s.stats)
	cc := s.codecReg.open()
	reqWG := vtime.NewWaitGroup(s.clock)
	// teardown runs on a worker once the stream ends, since it waits. Cancel
	// the connection context FIRST — its replies are undeliverable, and a
	// handler blocked on ctx.Done would otherwise deadlock the wait — then
	// wait out in-flight handlers, then close the socket, then fail the
	// writer (the socket must die first; see frameWriter.close).
	teardown := func() {
		cancel()
		reqWG.Wait()
		conn.Close()
		w.close()
		s.codecReg.close(cc)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}

	// answer encodes one reply and writes it; it is called where a frame is
	// handled and from the goroutines of requests that could park.
	answer := func(id uint64, resp any, err error) {
		reply := wire.ReplyEnvelope{ID: id, Payload: resp}
		if err != nil {
			reply.Err = err.Error()
			// Classify the failure on the wire so clients can stop retrying
			// what retrying cannot fix (see wire.ErrKind*). Permanent is
			// claimed only on positive identification (the handler marked it
			// via wire.PermanentError or its own Permanent() method) — an
			// unrecognized error stays Unknown, which clients treat as
			// retryable, because misfiling a transient overload/shutdown
			// error as permanent would stop a quorum re-sample that could
			// succeed.
			switch {
			case IsPermanent(err):
				reply.ErrKind = wire.ErrKindPermanent
			case IsTransient(err):
				reply.ErrKind = wire.ErrKindTransient
			default:
				reply.ErrKind = wire.ErrKindUnknown
			}
			reply.Payload = nil
		}
		// A write error means the connection is going away; its reading
		// side will observe it and end.
		bp := wire.GetBuffer()
		var frame []byte
		var encErr error
		if s.codec == CodecBinaryFlate {
			var res wire.FlateResult
			frame, res, encErr = wire.AppendReplyEnvelopeFlate(*bp, reply)
			if encErr == nil {
				cc.countFlate(res)
			}
		} else {
			frame, encErr = wire.AppendReplyEnvelope(*bp, reply)
		}
		if encErr != nil {
			// The handler returned a payload the closed binary codec cannot
			// carry; surface that as a permanent RPC error instead of
			// dropping the reply (the client would hang).
			frame, _ = wire.AppendReplyEnvelope((*bp)[:0], wire.ReplyEnvelope{
				ID: id, Err: encErr.Error(), ErrKind: wire.ErrKindPermanent,
			})
		}
		cc.countEncode(len(frame))
		_ = w.writeFrame(frame)
		*bp = frame[:0]
		wire.PutBuffer(bp)
	}

	onFrame := func(body []byte) bool {
		var env wire.Envelope
		var err error
		if s.codec == CodecBinaryFlate {
			env, err = wire.DecodeEnvelopeFlate(body)
		} else {
			env, err = wire.DecodeEnvelope(body)
		}
		cc.countDecode(len(body))
		if err != nil {
			return false // corrupt stream; drop the connection
		}
		// A request whose handler says it cannot park is answered here,
		// where its frame was read: nothing behind it on this connection can
		// be held up by it, and its reply leaves in arrival order. Anything
		// else gets a goroutine of its own, so a slow handler never delays a
		// request that arrived after it.
		if s.try != nil {
			if resp, ok, err := s.try.TryHandle(ctx, env.Payload); ok {
				answer(env.ID, resp, err)
				return true
			}
		}
		reqWG.Add(1)
		s.sched.Go(func() {
			defer reqWG.Done()
			resp, err := s.handler.Handle(ctx, env.Payload)
			answer(env.ID, resp, err)
		})
		return true
	}
	readFrames(conn, &s.stats, s.sched, onFrame, func() { s.sched.Go(teardown) })
}
