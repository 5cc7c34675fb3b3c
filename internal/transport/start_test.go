package transport

// The Starter contract, for both transports that implement it: Start takes
// every call; one it completes inline returns what Call would have, and a
// pending one reports to its sink exactly once, with what Call would have
// returned; either way the transport is left in the state Call would have
// left it in.

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

// callOutcome is what a row's calls did, in the terms Start and Call are
// compared in: the last call's reply or error, how many were dropped, and
// what they left behind.
type callOutcome struct {
	resp    any
	err     string
	dropped int
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

// TestMemNetworkStartContract: one row per kind of link. Start and Call on
// a same-seed twin network give the same reply or error after the same
// virtual time, drop the same calls, deliver to the handler as often,
// number the calls the same and consult the hook as often. Start completes
// inline exactly the calls nothing on the way can park — no latency, hook
// or concurrency cap, to a handler that is a TryHandler and accepts — and
// reports every other one to its sink exactly once.
func TestMemNetworkStartContract(t *testing.T) {
	const to = quorum.ServerID(1)
	ms := time.Millisecond
	latency := func(_ *vtime.SimClock, n *MemNetwork) { n.SetLatency(ms, 3*ms) }
	delayed := func(sc *vtime.SimClock, n *MemNetwork) {
		rep := replica.New(to)
		rep.SetBehavior(replica.Delayed{Delay: 4 * ms, Clock: sc})
		n.Register(to, rep)
	}
	rows := []struct {
		name    string
		setup   func(*vtime.SimClock, *MemNetwork)
		hook    *CallFault // installs a recording hook with this verdict
		to      quorum.ServerID
		calls   int  // sequential calls (default 1)
		cancel  bool // on a context already cancelled
		pending bool
	}{
		{name: "nothing to wait for"},
		{name: "latency on another server", setup: func(_ *vtime.SimClock, n *MemNetwork) { n.SetServerLatency(2, ms, ms) }},
		{name: "crashed, nothing to wait for", setup: func(_ *vtime.SimClock, n *MemNetwork) { n.Crash(to) }},
		{name: "partitioned, nothing to wait for", setup: func(_ *vtime.SimClock, n *MemNetwork) {
			n.SetPartition(map[quorum.ServerID]int{to: 1})
		}},
		{name: "unknown id, nothing to wait for", to: 9},
		{name: "cancelled context", cancel: true},
		{name: "drop verdict", setup: func(_ *vtime.SimClock, n *MemNetwork) { n.SetDropProb(0.3) }, calls: 400},
		{name: "latency", setup: latency, pending: true},
		{name: "link hook", hook: &CallFault{}, pending: true},
		{name: "hook drop", hook: &CallFault{Drop: true}, pending: true},
		{name: "hook delay", hook: &CallFault{Delay: 5 * ms}, pending: true},
		{name: "hook delay behind fixed latency", setup: func(_ *vtime.SimClock, n *MemNetwork) { n.SetLatency(2*ms, 2*ms) },
			hook: &CallFault{Delay: 3 * ms}, pending: true},
		{name: "hook duplicate", hook: &CallFault{Duplicate: true}, pending: true},
		{name: "hook replace", hook: &CallFault{ReplaceReq: wire.ReadRequest{Key: "y"}}, pending: true},
		{name: "hook mutate", hook: &CallFault{MutateReply: func(any, error) (any, error) { return "mutated", nil }}, pending: true},
		{name: "crashed", setup: func(sc *vtime.SimClock, n *MemNetwork) { latency(sc, n); n.Crash(to) }, pending: true},
		{name: "partitioned", setup: func(sc *vtime.SimClock, n *MemNetwork) {
			latency(sc, n)
			n.SetPartition(map[quorum.ServerID]int{to: 1})
		}, pending: true},
		{name: "unknown id", setup: latency, to: 9, pending: true},
		{name: "Delayed replica behind latency", setup: func(sc *vtime.SimClock, n *MemNetwork) { latency(sc, n); delayed(sc, n) }, pending: true},
		{name: "capped", setup: func(sc *vtime.SimClock, n *MemNetwork) { latency(sc, n); n.SetServerConcurrency(1) }, hook: &CallFault{}, pending: true},
		{name: "capped, nothing else to wait for", setup: func(_ *vtime.SimClock, n *MemNetwork) { n.SetServerConcurrency(1) }, pending: true},
		{name: "Delayed replica, nothing else to wait for", setup: delayed, pending: true},
		{name: "TryHandle declines", setup: func(_ *vtime.SimClock, n *MemNetwork) { n.Register(to, new(tryEcho)) }, pending: true},
		{name: "not a TryHandler", setup: func(_ *vtime.SimClock, n *MemNetwork) { n.Register(to, plainEcho()) }, hook: &CallFault{}, pending: true},
		{name: "not a TryHandler, nothing else to wait for", setup: func(_ *vtime.SimClock, n *MemNetwork) { n.Register(to, plainEcho()) }, pending: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dest := to
			if row.to != 0 {
				dest = row.to
			}
			calls := max(row.calls, 1)
			// run builds the row's network on a fresh SimClock and makes the
			// row's calls to it, with Start or with Call. It reports how many
			// Starts were pending, how many sink reports they made and how
			// many concurrency slots are held afterwards.
			run := func(start bool) (o callOutcome, pending, runs int64, slots int) {
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
					ctx, cancel := context.WithCancel(context.Background())
					if row.cancel {
						cancel()
					}
					defer cancel()
					req := wire.ReadRequest{Key: "x"}
					type result struct {
						resp any
						err  error
					}
					ch := vtime.NewChan[result](vtime.SchedOf(sc), 1)
					for i := 0; i < calls; i++ {
						var resp any
						var err error
						if !start {
							resp, err = n.Call(ctx, dest, req)
						} else {
							var reports int64
							sink := sinkFunc(func(_ int, resp any, err error) {
								atomic.AddInt64(&runs, 1)
								if atomic.AddInt64(&reports, 1) == 1 {
									ch.Send(result{resp, err})
								}
							})
							var p bool
							if resp, err, p = n.Start(ctx, dest, req, sink, i); p {
								pending++
								r := ch.Recv()
								resp, err = r.resp, r.err
							}
						}
						if errors.Is(err, ErrDropped) {
							o.dropped++
						}
						o.resp, o.err = resp, errString(err)
					}
					o.took = sc.Elapsed()
					sc.Sleep(time.Hour) // every timer the calls armed has fired
					o.handled, o.seq, o.hooked = echo.handled.Load(), seqOf(n, to), hook.calls.Load()
					if h, ok := n.servers[to].handler.(*tryEcho); ok {
						o.handled = h.handled.Load()
					}
					if rep, ok := n.servers[to].handler.(*replica.Replica); ok {
						o.handled = int64(rep.Store().Stats().Gets)
					}
					if sem := n.servers[to].sem; sem != nil {
						slots = len(sem)
					}
				})
				return o, pending, runs, slots
			}
			viaStart, pending, runs, slots := run(true)
			want := int64(0)
			if row.pending {
				want = int64(calls)
			}
			if pending != want {
				t.Errorf("%d of %d Starts pending, want %d", pending, calls, want)
			}
			if runs != pending {
				t.Errorf("the sink heard %d reports for %d pending calls", runs, pending)
			}
			if slots != 0 {
				t.Errorf("%d concurrency slots held after every call completed", slots)
			}
			if row.calls > 1 && (viaStart.dropped == 0 || viaStart.dropped == calls) {
				t.Errorf("%d of %d calls dropped: the row exercised nothing", viaStart.dropped, calls)
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
// per way a call ends. Every Start is pending. On an established connection
// it reports to its sink exactly once — a late timer or watcher finds the
// call claimed — and leaves the error, the connection pool, the leases, the
// pending table and the breaker exactly as Call does on a twin client. A
// Start that would have to dial is Call, on a worker.
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

			t.Run("would dial", func(t *testing.T) {
				c, _, dials := client(t, time.Second, 100)
				result := make(chan string, 2)
				_, _, pending := c.Start(context.Background(), 0, wire.ReadRequest{Key: "reply"}, sinkFunc(func(tag int, resp any, err error) {
					result <- fmt.Sprint(tag, resp, err)
				}), 5)
				if !pending {
					t.Fatal("Start that must dial completed inline")
				}
				want := fmt.Sprint(5, wire.ReadReply{Found: true, Value: []byte("reply")}, nil)
				if got := <-result; got != want {
					t.Errorf("the worker's call ended with %s, want %s", got, want)
				}
				if st := clientState(c, nil); dials() != 1 || st.conns != 1 || st.leases != 0 || st.calls != 0 {
					t.Errorf("after the call: %d dials, %+v; want one dial, one idle connection", dials(), st)
				}
				select {
				case again := <-result:
					t.Errorf("the sink heard a second report: %s", again)
				default:
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
							if _, _, pending := c.Start(ctx, 0, row.req, sinkFunc(func(_ int, _ any, err error) {
								runs.Add(1)
								result <- err
							}), 0); !pending {
								t.Fatal("Start completed inline")
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
						t.Errorf("the sink heard %d reports", runs)
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
