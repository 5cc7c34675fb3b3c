package transport

// The Starter contract, for both transports that implement it: a Start that
// declines leaves no trace; a Start that is taken runs done exactly once,
// with what Call would have returned, and leaves the transport in the state
// Call would have left it in.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// callOutcome is what one call did, in the terms Start and Call are
// compared in.
type callOutcome struct {
	resp    any
	err     string
	took    time.Duration // virtual
	handled int64         // deliveries to the echo handler
	seq     uint64        // the destination's call counter afterwards
	hooked  int64         // hook consultations
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestMemNetworkStartContract: one row per kind of link. A taken Start and a
// Call on a same-seed twin network give the same reply or error after the
// same virtual time, deliver to the handler as often, number the call the
// same and consult the hook as often; done runs once. A declined Start
// touches nothing: no call number, no hook, no slot.
func TestMemNetworkStartContract(t *testing.T) {
	const to = quorum.ServerID(1)
	ms := time.Millisecond
	latency := func(_ *vtime.SimClock, n *MemNetwork) { n.SetLatency(ms, 3*ms) }
	rows := []struct {
		name  string
		setup func(*vtime.SimClock, *MemNetwork)
		hook  *CallFault // installs a recording hook with this verdict
		to    quorum.ServerID
		taken bool
	}{
		{name: "latency", setup: latency, taken: true},
		{name: "hook drop", hook: &CallFault{Drop: true}, taken: true},
		{name: "hook delay", hook: &CallFault{Delay: 5 * ms}, taken: true},
		{name: "hook delay behind fixed latency", setup: func(_ *vtime.SimClock, n *MemNetwork) { n.SetLatency(2*ms, 2*ms) },
			hook: &CallFault{Delay: 3 * ms}, taken: true},
		{name: "hook duplicate", hook: &CallFault{Duplicate: true}, taken: true},
		{name: "hook replace", hook: &CallFault{ReplaceReq: wire.ReadRequest{Key: "y"}}, taken: true},
		{name: "hook mutate", hook: &CallFault{MutateReply: func(any, error) (any, error) { return "mutated", nil }}, taken: true},
		{name: "crashed", setup: func(sc *vtime.SimClock, n *MemNetwork) { latency(sc, n); n.Crash(to) }, taken: true},
		{name: "partitioned", setup: func(sc *vtime.SimClock, n *MemNetwork) {
			latency(sc, n)
			n.SetPartition(map[quorum.ServerID]int{to: 1})
		}, taken: true},
		{name: "unknown id", setup: latency, to: 9, taken: true},
		{name: "Delayed replica behind latency", setup: func(sc *vtime.SimClock, n *MemNetwork) {
			latency(sc, n)
			rep := replica.New(to)
			rep.SetBehavior(replica.Delayed{Delay: 4 * ms, Clock: sc})
			n.Register(to, rep)
		}, taken: true},
		{name: "capped", setup: func(sc *vtime.SimClock, n *MemNetwork) { latency(sc, n); n.SetServerConcurrency(1) }, hook: &CallFault{}},
		{name: "Delayed replica, nothing else to wait for", setup: func(sc *vtime.SimClock, n *MemNetwork) {
			rep := replica.New(to)
			rep.SetBehavior(replica.Delayed{Delay: 4 * ms, Clock: sc})
			n.Register(to, rep)
		}},
		{name: "not a TryHandler", setup: func(_ *vtime.SimClock, n *MemNetwork) { n.Register(to, plainEcho()) }, hook: &CallFault{}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dest := to
			if row.to != 0 {
				dest = row.to
			}
			// run builds the row's network on a fresh SimClock and makes one
			// call to it, with Start or with Call.
			run := func(start bool) (o callOutcome, taken bool, runs int64, slots int) {
				sc := vtime.NewSimClock()
				sc.Run(func() {
					n := NewMemNetwork(1)
					n.SetClock(sc)
					n.SetDropProb(1e-9) // numbers every call
					echo := acceptingEcho()
					n.Register(to, echo)
					hook := &recordingHook{}
					if row.hook != nil {
						hook.fault = *row.hook
						n.SetLinkHook(hook)
					}
					if row.setup != nil {
						row.setup(sc, n)
					}
					ctx := context.Background()
					req := wire.ReadRequest{Key: "x"}
					if !start {
						taken = true
						o.resp, o.err = wrapCall(n.Call(ctx, dest, req))
					} else {
						type result struct {
							resp any
							err  error
						}
						ch := make(chan result, 2)
						done := func(resp any, err error) {
							if atomic.AddInt64(&runs, 1) == 1 {
								sc.NoteSend()
								ch <- result{resp, err}
							}
						}
						if taken = n.Start(ctx, dest, req, done); taken {
							unpark := sc.Park()
							r := <-ch
							unpark()
							sc.NoteRecv()
							o.resp, o.err = r.resp, errString(r.err)
						}
					}
					o.took = sc.Elapsed()
					sc.Sleep(time.Hour) // every timer the call armed has fired
					o.handled, o.seq, o.hooked = echo.handled.Load(), seqOf(n, to), hook.calls.Load()
					if rep, ok := n.servers[to].handler.(*replica.Replica); ok {
						o.handled = int64(rep.Store().Stats().Gets)
					}
					if sem := n.servers[to].sem; sem != nil {
						slots = len(sem)
					}
				})
				return o, taken, runs, slots
			}
			viaStart, taken, runs, slots := run(true)
			if taken != row.taken {
				t.Fatalf("Start taken %v, want %v", taken, row.taken)
			}
			if !taken {
				if viaStart.seq != 0 || viaStart.hooked != 0 || viaStart.handled != 0 || slots != 0 || runs != 0 {
					t.Errorf("declined Start left a trace: call number %d, hook consulted %d times, handled %d times, %d slots held, done ran %d times",
						viaStart.seq, viaStart.hooked, viaStart.handled, slots, runs)
				}
				return
			}
			if runs != 1 {
				t.Errorf("done ran %d times", runs)
			}
			viaCall, _, _, _ := run(false)
			if fmt.Sprint(viaStart) != fmt.Sprint(viaCall) {
				t.Errorf("Start and Call differ:\n Start %+v\n Call  %+v", viaStart, viaCall)
			}
		})
	}
}

// wrapCall is Call's result in callOutcome's terms.
func wrapCall(resp any, err error) (any, string) { return resp, errString(err) }

// scriptServer serves every connection l accepts, answering each request by
// its key: "reply" with a reply carrying the key, "rpcerr" with an error,
// "reset" by closing the connection, anything else never. got sees every
// key as it arrives.
func scriptServer(l net.Listener, got chan<- string) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			var stats tcpCounters
			w := newFrameWriter(conn, &stats)
			readEach(conn, func(body []byte) bool {
				env, err := wire.DecodeEnvelope(body)
				if err != nil {
					return false
				}
				key := env.Payload.(wire.ReadRequest).Key
				got <- key
				reply := wire.ReplyEnvelope{ID: env.ID}
				switch key {
				case "reply":
					reply.Payload = wire.ReadReply{Found: true, Value: []byte(key)}
				case "rpcerr":
					reply.Err, reply.ErrKind = "refused", wire.ErrKindPermanent
				case "reset":
					return false
				default:
					return true
				}
				frame, _ := wire.AppendReplyEnvelope(nil, reply)
				return w.writeFrame(frame) == nil
			})
		}()
	}
}

// startPlane is a scripted server 0 and a way to reach it.
type startPlane struct {
	name   string
	listen func(t *testing.T) (net.Listener, func(quorum.ServerID, string) (net.Conn, error), func() uint64)
}

var startPlanes = []startPlane{
	{"VirtualNet", func(t *testing.T) (net.Listener, func(quorum.ServerID, string) (net.Conn, error), func() uint64) {
		vn := NewVirtualNet(nil, 1)
		l, err := vn.Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		return l, vn.Dialer(ClientSource), func() uint64 { return vn.Stats().Dials }
	}},
	{"loopback", func(t *testing.T) (net.Listener, func(quorum.ServerID, string) (net.Conn, error), func() uint64) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var dials atomic.Uint64
		return l, func(_ quorum.ServerID, addr string) (net.Conn, error) {
			dials.Add(1)
			return net.Dial("tcp", addr)
		}, dials.Load
	}},
}

// tcpState is what a call leaves behind in a TCPClient, for comparing
// Start's with Call's.
type tcpState struct {
	err                  string
	conns, leases, calls int
	brFails              int
	brState              breakerState
	trips, fastFails     uint64
}

func clientState(c *TCPClient, err error) tcpState {
	st := c.states[0]
	st.mu.Lock()
	defer st.mu.Unlock()
	s := tcpState{err: errString(err), conns: len(st.conns), brFails: st.brFails, brState: st.brState}
	for _, cn := range st.conns {
		s.leases += int(cn.load())
		cn.mu.Lock()
		s.calls += len(cn.pending)
		cn.mu.Unlock()
	}
	stats := c.Stats()
	s.trips, s.fastFails = stats.BreakerTrips, stats.BreakerFastFails
	return s
}

// TestTCPClientStartContract: over a VirtualNet and over loopback, one row
// per way a call ends. On an established connection Start is taken, runs
// done exactly once — a late timer or watcher finds the call claimed — and
// leaves the error, the connection pool, the leases, the pending table and
// the breaker exactly as Call does on a twin client. A Start that would have
// to dial declines and leaves no trace.
func TestTCPClientStartContract(t *testing.T) {
	const settle = 150 * time.Millisecond // past every row's call timeout
	is := func(target error) func(error) bool { return func(err error) bool { return errors.Is(err, target) } }
	rows := []struct {
		name    string
		req     any
		timeout time.Duration
		cancel  bool // cancel the call's context once the server has it
		trip    bool // open the breaker (threshold 1) before the call
		want    func(error) bool
	}{
		{"reply", wire.ReadRequest{Key: "reply"}, 100 * time.Millisecond, false, false, func(err error) bool { return err == nil }},
		{"RPC error", wire.ReadRequest{Key: "rpcerr"}, 100 * time.Millisecond, false, false, func(err error) bool {
			var rpc *RPCError
			return errors.As(err, &rpc)
		}},
		{"call timeout", wire.ReadRequest{Key: "hang"}, 20 * time.Millisecond, false, false, is(errCallTimeout)},
		{"ctx cancel", wire.ReadRequest{Key: "hang"}, 0, true, false, is(context.Canceled)},
		{"reset mid-flight", wire.ReadRequest{Key: "reset"}, 100 * time.Millisecond, false, false, is(ErrClosed)},
		{"encode failure", struct{}{}, 100 * time.Millisecond, false, false, IsPermanent},
		{"breaker fast-fail", wire.ReadRequest{Key: "reply"}, 0, false, true, is(ErrServerDown)},
	}
	for _, plane := range startPlanes {
		t.Run(plane.name, func(t *testing.T) {
			// client stands a scripted server up and a client connected to it.
			client := func(t *testing.T, timeout time.Duration, threshold int) (*TCPClient, chan string, func() uint64) {
				l, dial, dials := plane.listen(t)
				got := make(chan string, 16)
				go scriptServer(l, got)
				t.Cleanup(func() { l.Close() })
				c := NewTCPClientOpts(map[quorum.ServerID]string{0: l.Addr().String()}, TCPClientOptions{
					Dial: dial, CallTimeout: timeout, Lifecycle: LifecycleConfig{BreakerThreshold: threshold},
				})
				t.Cleanup(func() { c.Close() })
				return c, got, dials
			}

			t.Run("declined", func(t *testing.T) {
				c, _, dials := client(t, time.Second, 100)
				ran := false
				if c.Start(context.Background(), 0, wire.ReadRequest{Key: "reply"}, func(any, error) { ran = true }) {
					t.Fatal("Start taken with no connection established")
				}
				if ran || c.nextID.Load() != 0 || dials() != 0 || len(c.states[0].conns) != 0 {
					t.Errorf("declined Start left a trace: done ran %v, %d request ids used, %d dials, %d connections",
						ran, c.nextID.Load(), dials(), len(c.states[0].conns))
				}
			})

			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					threshold := 100
					if row.trip {
						threshold = 1
					}
					// run makes the row's call on a fresh, connected client.
					run := func(start bool) (tcpState, int64) {
						c, got, _ := client(t, row.timeout, threshold)
						ctx := context.Background()
						if _, err := c.Call(ctx, 0, wire.ReadRequest{Key: "reply"}); err != nil {
							t.Fatalf("establishing the connection: %v", err)
						}
						<-got
						if row.trip {
							if _, err := c.Call(ctx, 0, wire.ReadRequest{Key: "reset"}); !errors.Is(err, ErrClosed) {
								t.Fatalf("tripping the breaker: %v", err)
							}
							<-got
						}
						ctx, cancel := context.WithCancel(ctx)
						defer cancel()
						var runs atomic.Int64
						result := make(chan error, 2)
						if start {
							if !c.Start(ctx, 0, row.req, func(_ any, err error) {
								runs.Add(1)
								result <- err
							}) {
								t.Fatal("Start declined on an established connection")
							}
						} else {
							go func() {
								_, err := c.Call(ctx, 0, row.req)
								runs.Add(1)
								result <- err
							}()
						}
						if row.cancel {
							<-got
							cancel()
						}
						var err error
						select {
						case err = <-result:
						case <-time.After(10 * time.Second):
							t.Fatal("the call never completed")
						}
						time.Sleep(settle)
						if !row.want(err) {
							t.Errorf("the call ended with %v", err)
						}
						return clientState(c, err), runs.Load()
					}
					viaStart, runs := run(true)
					if runs != 1 {
						t.Errorf("done ran %d times", runs)
					}
					if viaStart.leases != 0 || viaStart.calls != 0 {
						t.Errorf("%d leases held and %d calls pending after the call completed", viaStart.leases, viaStart.calls)
					}
					if viaCall, _ := run(false); viaStart != viaCall {
						t.Errorf("Start and Call leave different states:\n Start %+v\n Call  %+v", viaStart, viaCall)
					}
				})
			}
		})
	}
}
