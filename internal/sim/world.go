package sim

// World is the one way the harnesses build, fault and churn a simulated
// cluster: the same replicas under a SimClock on either data plane — the
// in-process MemNetwork, or the REAL TCP data plane (framing, binary codec,
// group-commit frame writer, read-loop dispatch) over virtual-time byte
// streams (transport.VirtualNet), so ε is measured and chaos schedules are
// replayed against the code path production actually runs.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/vtime"
)

// Transport selector values for config.Topology.Transport, as chaos.Config
// and load.Config read it.
const (
	// TransportMem runs client calls directly on the in-process MemNetwork
	// (the default, and the only option before the virtual TCP data plane).
	TransportMem = "mem"
	// TransportTCPVirtual runs every call through the real TCP stack over
	// SimClock-scheduled byte streams.
	TransportTCPVirtual = "tcp-virtual"
)

// DefaultCallTimeout bounds each TCP call in the harnesses (virtual time,
// so a timed-out call costs no wall clock). It must dominate any legitimate
// round trip the scenarios produce — straggler latencies run to a few
// hundred milliseconds — while still reaping the stalls only byte-level
// faults can cause (a corrupted length prefix desyncing a stream).
const DefaultCallTimeout = time.Second

// swapHandler lets Join replace a server's replica mid-run (a rejoin
// installs a fresh, empty replica) without tearing the TCP server down: the
// server holds the indirection, not the replica. It keeps the wrapped
// handler's TryHandler side (the way transport.Offset keeps Start), so the
// server still answers a replica that cannot park where its request is
// read. The side is asserted once, in set, as MemNetwork.Register does it;
// a request loads the pair and takes no lock.
type swapHandler struct{ cur atomic.Pointer[swapTarget] }

type swapTarget struct {
	h   transport.Handler
	try transport.TryHandler // h's TryHandler side, nil if it has none
}

func (s *swapHandler) set(h transport.Handler) {
	t := &swapTarget{h: h}
	t.try, _ = h.(transport.TryHandler)
	s.cur.Store(t)
}

// Handle implements transport.Handler.
func (s *swapHandler) Handle(ctx context.Context, req any) (any, error) {
	return s.cur.Load().h.Handle(ctx, req)
}

// TryHandle implements transport.TryHandler: the current handler's answer,
// a decline if it has no TryHandler side.
func (s *swapHandler) TryHandle(ctx context.Context, req any) (any, bool, error) {
	if t := s.cur.Load(); t.try != nil {
		return t.try.TryHandle(ctx, req)
	}
	return nil, false, nil
}

// World is a cluster of replicas on one data plane under a clock, with the
// membership-view counter its churn moves: Leave, and a Join over a live
// replica, each destroy a store — a departure in the timed-quorum sense —
// and advance View; a Join into a slot Leave emptied does not (the Leave
// counted it), and Crash and Recover are not churn (a crashed server keeps
// its store).
type World struct {
	// Cluster holds the replicas, indexed by id (Join swaps a fresh one
	// in), and the MemNetwork that carries the mem plane's calls.
	Cluster *Cluster
	// VNet is tcp-virtual's byte-stream network, where pacing and
	// byte-level faults are configured; nil on mem.
	VNet *transport.VirtualNet

	plane    string
	net      network // Cluster.Net or VNet: the network the calls ride
	caller   transport.Transport
	gossipTr transport.Transport
	clk      vtime.Clock
	opts     TCPOptions

	// tcp-virtual only: the quorum client, and the indirection in front of
	// each server's replica, indexed by id.
	client   *transport.TCPClient
	handlers []*swapHandler

	view     atomic.Uint64
	mu       sync.Mutex
	departed map[quorum.ServerID]bool // left, not yet rejoined
	servers  []*transport.TCPServer
	addrs    map[quorum.ServerID]string
	gossip   map[quorum.ServerID]*transport.TCPClient
}

// network is what the two planes' networks do alike.
type network interface {
	SetLatency(min, max time.Duration)
	Crash(id quorum.ServerID)
	Recover(id quorum.ServerID)
	Deregister(id quorum.ServerID)
}

// TCPOptions parameterises a tcp-virtual World; the mem plane ignores it.
type TCPOptions struct {
	// CallTimeout bounds each client call; <= 0 means DefaultCallTimeout.
	CallTimeout time.Duration
	// Codec selects the wire codec for every server and client in the
	// world (zero value = CodecBinary, the production default).
	Codec transport.Codec
	// Lifecycle configures pooling, redial backoff and the circuit breaker
	// on the quorum client (zero value = legacy single-connection
	// behaviour).
	Lifecycle transport.LifecycleConfig
}

// NewWorld builds cfg's cluster (NewCluster) on plane (sim.TransportMem,
// the default when empty, or sim.TransportTCPVirtual), under cfg.Clock,
// which it requires. On tcp-virtual every replica sits behind its own TCP
// server on a VirtualNet seeded with seed, and one client reaches all of
// them.
func NewWorld(cfg config.Cluster, plane string, seed int64, opts TCPOptions) (*World, error) {
	if cfg.Clock == nil {
		return nil, errors.New("sim: a world requires a clock")
	}
	c := NewCluster(cfg)
	w := &World{Cluster: c, plane: plane, clk: cfg.Clock, departed: make(map[quorum.ServerID]bool)}
	switch plane {
	case "", TransportMem:
		w.plane, w.net, w.caller, w.gossipTr = TransportMem, c.Net, c.Net, c.Net
		return w, nil
	case TransportTCPVirtual:
	default:
		return nil, fmt.Errorf("sim: unknown transport %q", plane)
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = DefaultCallTimeout
	}
	w.VNet = transport.NewVirtualNet(cfg.Clock, seed)
	w.net, w.opts = w.VNet, opts
	w.addrs = make(map[quorum.ServerID]string)
	w.gossip = make(map[quorum.ServerID]*transport.TCPClient)
	w.handlers = make([]*swapHandler, len(c.Replicas))
	for id, r := range c.Replicas {
		w.handlers[id] = &swapHandler{}
		w.handlers[id].set(r)
		if err := w.listen(quorum.ServerID(id)); err != nil {
			return nil, err
		}
	}
	w.client = w.NewSourceClient(transport.ClientSource, opts.Lifecycle)
	w.caller, w.gossipTr = w.client, gossipTransport{w}
	return w, nil
}

// listen binds id's listener and serves it behind id's handler.
func (w *World) listen(id quorum.ServerID) error {
	l, err := w.VNet.Listen(id)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s := transport.ServeListener(l, w.handlers[id], transport.TCPOptions{Clock: w.clk, Codec: w.opts.Codec})
	w.mu.Lock()
	w.servers = append(w.servers, s)
	w.addrs[id] = l.Addr().String()
	w.mu.Unlock()
	return nil
}

// Plane names the data plane: TransportMem or TransportTCPVirtual.
func (w *World) Plane() string { return w.plane }

// Caller returns the quorum client's transport: the MemNetwork, or on
// tcp-virtual a TCP client (source identity transport.ClientSource) whose
// calls are bounded by the call timeout.
func (w *World) Caller() transport.Transport { return w.caller }

// NewSourceClient builds an extra tcp-virtual client with its own source
// identity and lifecycle configuration. The dial-storm chaos action uses
// this to stand up many independent clients hammering one address space;
// tests use it to compare lifecycle policies side by side. The caller owns
// the client's Close.
func (w *World) NewSourceClient(src quorum.ServerID, lc transport.LifecycleConfig) *transport.TCPClient {
	return transport.NewTCPClientOpts(w.addrs, transport.TCPClientOptions{
		Clock:       w.clk,
		Dial:        w.VNet.Dialer(src),
		CallTimeout: w.opts.CallTimeout,
		Codec:       w.opts.Codec,
		Lifecycle:   lc,
	})
}

// GossipTransport returns a Transport for server-initiated traffic
// (diffusion). On tcp-virtual each call is routed through a per-source TCP
// client keyed by the transport.WithSource identity, so the byte-level
// fault plane sees true server-to-server links instead of attributing
// gossip to the client.
func (w *World) GossipTransport() transport.Transport { return w.gossipTr }

type gossipTransport struct{ w *World }

// Call implements transport.Transport.
func (g gossipTransport) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	from := transport.SourceFromContext(ctx)
	g.w.mu.Lock()
	cl, ok := g.w.gossip[from]
	if !ok {
		cl = g.w.NewSourceClient(from, transport.LifecycleConfig{})
		g.w.gossip[from] = cl
	}
	g.w.mu.Unlock()
	return cl.Call(ctx, to, req)
}

// SetLatency gives every call (mem) or framed chunk (tcp-virtual) a
// uniform delivery latency in [min, max].
func (w *World) SetLatency(min, max time.Duration) { w.net.SetLatency(min, max) }

// Crash marks a server crashed: calls to it fail, and on tcp-virtual every
// connection touching it is reset (clients re-dial after recovery).
func (w *World) Crash(id quorum.ServerID) { w.net.Crash(id) }

// Recover clears a server's crashed state.
func (w *World) Recover(id quorum.ServerID) { w.net.Recover(id) }

// Leave departs a server from the membership, destroying its copy: calls
// to it fail with transport.ErrUnknownServer, as if the address were gone.
func (w *World) Leave(id quorum.ServerID) {
	w.net.Deregister(id)
	w.mu.Lock()
	w.departed[id] = true
	w.mu.Unlock()
	w.view.Add(1)
}

// Join (re-)joins server id with a fresh, empty replica — a rejoining
// server remembers nothing — and returns it. A slot Leave emptied is bound
// again; a live replica is swapped out in place.
func (w *World) Join(id quorum.ServerID) (*replica.Replica, error) {
	if id < 0 || int(id) >= len(w.Cluster.Replicas) {
		return nil, fmt.Errorf("sim: join %d: not a server of this world", id)
	}
	r := replica.New(id)
	w.Cluster.Replicas[id] = r
	w.mu.Lock()
	rejoin := w.departed[id]
	delete(w.departed, id)
	w.mu.Unlock()
	if !rejoin {
		w.view.Add(1)
	}
	if w.VNet == nil {
		w.Cluster.Net.Register(id, r)
		return r, nil
	}
	w.handlers[id].set(r)
	if rejoin {
		return r, w.listen(id)
	}
	return r, nil
}

// View is the membership-view version: the number of copies Leave and Join
// have destroyed.
func (w *World) View() uint64 { return w.view.Load() }

// Close tears the tcp-virtual plane down: clients first (their connections
// reset), then every server. Inside a SimClock run this must happen before
// the run body returns, so the scheduler's workers all retire.
func (w *World) Close() {
	if w.VNet == nil {
		return
	}
	w.mu.Lock()
	servers, gossip := w.servers, w.gossip
	w.servers, w.gossip = nil, make(map[quorum.ServerID]*transport.TCPClient)
	w.mu.Unlock()
	w.client.Close()
	for _, cl := range gossip {
		cl.Close()
	}
	for _, s := range servers {
		s.Close()
	}
}
