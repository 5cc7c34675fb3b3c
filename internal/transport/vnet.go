package transport

// This file implements VirtualNet, the virtual-time byte-stream network the
// TCP data plane runs on inside the sim and chaos harnesses: an in-process
// net.Conn / net.Listener implementation whose write→read delivery latency,
// byte pacing and half-close semantics are scheduled on a vtime.Clock. The
// real TCP stack — framing, binary codec, group-commit frame writer,
// request dispatch, per-connection contexts — runs on it (see ServeListener
// and TCPClientOptions.Dial), which is what puts the production code path
// inside the determinism contract: under a vtime.SimClock a whole chaos
// scenario over "TCP" replays byte-for-byte from its seed and executes in
// wall-clock milliseconds. Only the reading differs from a socket's: each
// chunk is parsed where it lands (vconn.setSink), by no goroutine of its own,
// and each receiving end lands its chunks with one alarm of its own.
//
// Fault injection happens at the byte-stream layer, below framing, so the
// adversary works against framed bytes rather than messages:
//
//   - Drop: a lost chunk is unrecoverable for a stream (the framing after
//     the gap is garbage), so the connection pair is reset — exactly how a
//     real TCP stack surfaces persistent segment loss to the application.
//   - Corrupt: one bit of the chunk is flipped in flight (a checksum-evading
//     adversary). Depending on where it lands the receiver sees a broken
//     length prefix (connection dropped), an undecodable body (connection
//     dropped), or a decodable-but-wrong message (the protocol's end-to-end
//     defenses — signatures, vouch thresholds — must absorb it).
//   - Delay/jitter: per-chunk delivery delay, monotone per direction so the
//     stream never reorders internally; across connections it shuffles
//     reply arrival exactly like MemNetwork's reorder fault.
//   - Block/Crash/Deregister: connections touching the target are reset and
//     new dials refused, the byte-level analogue of the chaos engine's
//     link blocks and the simulated network's crash/membership faults.
//
// Duplication has no byte-stream analogue by design: TCP sequence numbers
// deduplicate segments, so at-least-once delivery cannot be observed above
// a stream transport. Scenarios that set a duplication probability are
// exercising a fault class this transport provably rules out, and the
// verdict is a deliberate no-op here.
//
// Determinism: every latency draw and fault verdict is a pure function of
// (seed, link, per-link chunk counter), the same counter-hashing discipline
// MemNetwork and the chaos engine use. The harnesses serialize traffic per
// connection (one outstanding RPC per server per operation), so per-link
// chunk sequences — and therefore delivery schedules — replay exactly.

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
)

// vnetError is a transport-level failure of the virtual network. It
// implements net.Error so IsTransient classifies it exactly like a real
// socket error.
type vnetError struct {
	msg     string
	timeout bool
}

func (e *vnetError) Error() string   { return e.msg }
func (e *vnetError) Timeout() bool   { return e.timeout }
func (e *vnetError) Temporary() bool { return true }

// errVConnReset is what readers and writers observe on a connection the
// fault plane reset (chunk drop, block, crash, deregister).
var errVConnReset = &vnetError{msg: "transport: virtual connection reset"}

// VNetStats counts a VirtualNet's byte-stream activity.
type VNetStats struct {
	// Dials counts connection establishments.
	Dials uint64
	// Chunks and ChunkBytes count scheduled write chunks (a frame-writer flush is
	// one chunk, like one TCP segment burst).
	Chunks     uint64
	ChunkBytes uint64
	// Dropped, Corrupted and Resets count fault-plane interventions.
	Dropped   uint64
	Corrupted uint64
	Resets    uint64
	// Stalled counts chunks silently swallowed because an endpoint was
	// stalled (see Stall).
	Stalled uint64
}

// vlinkKey identifies one directed byte path. client is the dialing
// identity (ClientSource for plain clients), server the listener id;
// toServer distinguishes the request leg from the reply leg.
type vlinkKey struct {
	client, server quorum.ServerID
	toServer       bool
}

// blockKey is a directed block; either side may be Anyone.
type blockKey struct{ from, to quorum.ServerID }

// Anyone is the wildcard endpoint for VirtualNet.Block, mirroring the
// chaos package's Any.
const Anyone quorum.ServerID = -2

// VirtualNet is the virtual-time byte-stream network. Construct with
// NewVirtualNet; all methods are safe for concurrent use.
type VirtualNet struct {
	clock vtime.Clock
	sched vtime.Sched
	seed  uint64

	mu        sync.Mutex
	listeners map[quorum.ServerID]*VListener
	conns     map[*vconn]struct{} // client-side endpoints of live pairs
	crashed   map[quorum.ServerID]bool
	stalled   map[quorum.ServerID]bool
	blocked   map[blockKey]bool
	minLat    time.Duration
	maxLat    time.Duration
	// Per-direction link bandwidth in bytes per second; 0 = infinite.
	// rateUp paces client→server chunks (the request leg), rateDown
	// server→client (the reply leg) — asymmetric WAN links have different
	// capacities per direction.
	rateUp    int64
	rateDown  int64
	dropP     float64
	corruptP  float64
	jitterMax time.Duration
	chunkSeq  map[vlinkKey]uint64

	stats struct {
		dials, chunks, chunkBytes, dropped, corrupted, resets, stalled uint64
	}
}

// NewVirtualNet returns an empty virtual network on clk (nil means the wall
// clock — the conn semantics work under either, but only a vtime.SimClock
// makes runs deterministic and instant). seed fixes every latency draw and
// fault verdict.
func NewVirtualNet(clk vtime.Clock, seed int64) *VirtualNet {
	c := vtime.Or(clk)
	return &VirtualNet{
		clock:     c,
		sched:     vtime.SchedOf(c),
		seed:      uint64(seed),
		listeners: make(map[quorum.ServerID]*VListener),
		conns:     make(map[*vconn]struct{}),
		crashed:   make(map[quorum.ServerID]bool),
		stalled:   make(map[quorum.ServerID]bool),
		blocked:   make(map[blockKey]bool),
		chunkSeq:  make(map[vlinkKey]uint64),
	}
}

// Stats returns a snapshot of the network's counters.
//
//pqslint:allow deadexport seam: transport vnet_test and dispatch_test read the chunk and stall counters
func (vn *VirtualNet) Stats() VNetStats {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	return VNetStats{
		Dials:      vn.stats.dials,
		Chunks:     vn.stats.chunks,
		ChunkBytes: vn.stats.chunkBytes,
		Dropped:    vn.stats.dropped,
		Corrupted:  vn.stats.corrupted,
		Resets:     vn.stats.resets,
		Stalled:    vn.stats.stalled,
	}
}

// SetLatency sets the uniform per-chunk delivery latency range (drawn
// deterministically per link from the seed). Zero disables delay.
func (vn *VirtualNet) SetLatency(min, max time.Duration) {
	if min < 0 || max < min {
		panic("transport: invalid latency range")
	}
	vn.mu.Lock()
	defer vn.mu.Unlock()
	vn.minLat, vn.maxLat = min, max
}

// SetByteRate sets the link bandwidth in bytes per second, symmetrically in
// both directions: each chunk adds its serialization delay and occupies its
// direction of the link while transmitting. Zero means infinite bandwidth.
//
//pqslint:allow deadexport seam: the root throughput_bench_test paces WAN links with it
func (vn *VirtualNet) SetByteRate(bytesPerSec int64) {
	vn.SetByteRateAsym(bytesPerSec, bytesPerSec)
}

// SetByteRateAsym sets the link bandwidth per direction: toServer paces
// client→server chunks (request legs, gossip pushes), toClient paces
// server→client chunks (reply legs). Zero means infinite in that direction.
// Asymmetric rates model WAN access links whose upstream and downstream
// capacities differ.
func (vn *VirtualNet) SetByteRateAsym(toServer, toClient int64) {
	if toServer < 0 || toClient < 0 {
		panic("transport: negative byte rate")
	}
	vn.mu.Lock()
	defer vn.mu.Unlock()
	vn.rateUp, vn.rateDown = toServer, toClient
}

// SetDrop sets the per-chunk loss probability. A dropped chunk resets its
// connection pair (stream framing cannot survive a gap).
func (vn *VirtualNet) SetDrop(p float64) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	vn.dropP = p
}

// SetCorrupt sets the per-chunk bit-flip probability.
func (vn *VirtualNet) SetCorrupt(p float64) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	vn.corruptP = p
}

// SetReorder sets the maximum extra per-chunk delivery delay (jitter: it
// reorders delivery across connections; within one stream delivery stays
// monotone).
func (vn *VirtualNet) SetReorder(max time.Duration) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	vn.jitterMax = max
}

// Crash marks a server crashed: dials to it fail with ErrCrashed and every
// connection touching it is reset. Recover clears the mark (existing
// connections stay dead; clients re-dial).
func (vn *VirtualNet) Crash(id quorum.ServerID) {
	vn.mu.Lock()
	vn.crashed[id] = true
	victims := vn.connsTouchingLocked(id)
	vn.mu.Unlock()
	resetAll(victims)
}

// Recover clears a server's crashed state.
func (vn *VirtualNet) Recover(id quorum.ServerID) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	delete(vn.crashed, id)
}

// Stall marks a server unresponsive without failing anything promptly:
// chunks to or from it are silently swallowed (the write succeeds, nothing
// is ever delivered), so in-flight RPCs hang until the caller's own timeout
// fires. This is the slow/hung-server failure mode — the one a circuit
// breaker exists for — as opposed to Crash, whose resets fail fast.
// Existing connections stay up; dials still succeed.
//
//pqslint:allow deadexport seam: register degraded_test hangs a server with it
func (vn *VirtualNet) Stall(id quorum.ServerID) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	vn.stalled[id] = true
}

// Block severs the directed path from→to (either may be Anyone): new dials
// whose request leg matches fail with ErrDropped, and existing connections
// carrying a matching direction are reset. This is the prompt-failure
// semantics of the chaos engine's link blocks: a stream with one direction
// blackholed can only stall, and a stalled RPC is surfaced as a reset
// rather than a hung virtual world.
func (vn *VirtualNet) Block(from, to quorum.ServerID) {
	vn.mu.Lock()
	vn.blocked[blockKey{from, to}] = true
	var victims []*vconn
	for c := range vn.conns {
		if vn.blockAppliesLocked(c.client, c.server) || vn.blockAppliesLocked(c.server, c.client) {
			victims = append(victims, c)
		}
	}
	vn.mu.Unlock()
	resetAll(victims)
}

// Heal removes every block and zeroes every fault probability (latency and
// bandwidth are topology, not faults, and stay).
func (vn *VirtualNet) Heal() {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	vn.blocked = make(map[blockKey]bool)
	vn.dropP, vn.corruptP, vn.jitterMax = 0, 0, 0
}

// Deregister removes a server from the address space: dials fail with
// ErrUnknownServer, its listener stops accepting, and connections touching
// it are reset. A later Listen rebinds the id (membership rejoin).
func (vn *VirtualNet) Deregister(id quorum.ServerID) {
	vn.mu.Lock()
	l := vn.listeners[id]
	delete(vn.listeners, id)
	delete(vn.crashed, id)
	victims := vn.connsTouchingLocked(id)
	vn.mu.Unlock()
	if l != nil {
		l.close()
	}
	resetAll(victims)
}

// connsTouchingLocked returns live pairs with id as either endpoint.
func (vn *VirtualNet) connsTouchingLocked(id quorum.ServerID) []*vconn {
	var out []*vconn
	for c := range vn.conns {
		if c.client == id || c.server == id {
			out = append(out, c)
		}
	}
	return out
}

func resetAll(conns []*vconn) {
	for _, c := range conns {
		c.reset(errVConnReset)
	}
}

// blockAppliesLocked reports whether a directed block covers from→to.
func (vn *VirtualNet) blockAppliesLocked(from, to quorum.ServerID) bool {
	return vn.blocked[blockKey{from, to}] ||
		vn.blocked[blockKey{Anyone, to}] ||
		vn.blocked[blockKey{from, Anyone}]
}

// Listen binds a virtual listener to id. The returned listener plugs into
// ServeListener; its Addr is "virtual:<id>".
func (vn *VirtualNet) Listen(id quorum.ServerID) (*VListener, error) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	if _, ok := vn.listeners[id]; ok {
		return nil, fmt.Errorf("transport: virtual address %d already bound", id)
	}
	l := &VListener{net: vn, id: id, ch: vtime.NewChan[struct{}](vn.sched, 1)}
	vn.listeners[id] = l
	return l, nil
}

// Dialer returns a dial function bound to the given source identity,
// matching TCPClientOptions.Dial. Per-link fault decisions and latency
// draws key on (source, destination), so per-source dialers are what give
// server-initiated traffic (gossip) true link identities.
func (vn *VirtualNet) Dialer(from quorum.ServerID) func(to quorum.ServerID, addr string) (net.Conn, error) {
	return func(to quorum.ServerID, _ string) (net.Conn, error) {
		return vn.dial(from, to)
	}
}

func (vn *VirtualNet) dial(from, to quorum.ServerID) (net.Conn, error) {
	vn.mu.Lock()
	if vn.crashed[to] {
		vn.mu.Unlock()
		return nil, ErrCrashed
	}
	if vn.blockAppliesLocked(from, to) {
		vn.mu.Unlock()
		return nil, ErrDropped
	}
	l, ok := vn.listeners[to]
	if !ok {
		vn.mu.Unlock()
		return nil, ErrUnknownServer
	}
	pmu := new(sync.Mutex)
	cl := &vconn{net: vn, client: from, server: to, toServer: true, pmu: pmu, readCh: vtime.NewChan[struct{}](vn.sched, 1)}
	sv := &vconn{net: vn, client: from, server: to, toServer: false, pmu: pmu, readCh: vtime.NewChan[struct{}](vn.sched, 1)}
	cl.peer, sv.peer = sv, cl
	cl.alarm, sv.alarm = vtime.NewAlarm(vn.clock, cl.land), vtime.NewAlarm(vn.clock, sv.land)
	vn.conns[cl] = struct{}{}
	vn.stats.dials++
	vn.mu.Unlock()
	if !l.enqueue(sv) {
		// The listener is closed but the address still bound: the server
		// stopped accepting without leaving the membership, which is a
		// refused/reset connection — NOT an unknown address (Deregister is
		// what removes the binding and produces ErrUnknownServer).
		cl.reset(errVConnReset)
		return nil, errVConnReset
	}
	return cl, nil
}

// dropConn forgets a finished pair (either endpoint).
func (vn *VirtualNet) dropConn(c *vconn) {
	if !c.toServer {
		c = c.peer
	}
	vn.mu.Lock()
	delete(vn.conns, c)
	vn.mu.Unlock()
}

// chunkVerdict is the fault plane's decision on one written chunk.
type chunkVerdict struct {
	stalled    bool // an endpoint is stalled: swallow the chunk
	drop       bool
	corruptBit int64 // < 0: none; else bit index into the chunk
	delay      time.Duration
}

// verdict draws the per-chunk decision word: delivery latency, jitter, drop
// and corruption, all counter-hashed from (seed, link, chunk sequence)
// exactly like MemNetwork's per-call draws, so a run whose per-link chunk
// sequence is deterministic replays its delivery schedule and fault pattern
// from the seed. A stalled server's chunk is swallowed before any draw: it
// consumes no chunkSeq, so stalling a server does not perturb the verdict
// stream of other links.
func (vn *VirtualNet) verdict(link vlinkKey, size int) chunkVerdict {
	vn.mu.Lock()
	if vn.stalled[link.server] {
		vn.stats.stalled++
		vn.mu.Unlock()
		return chunkVerdict{stalled: true}
	}
	vn.chunkSeq[link]++
	seq := vn.chunkSeq[link]
	minLat, maxLat := vn.minLat, vn.maxLat
	dropP, corruptP, jitterMax := vn.dropP, vn.corruptP, vn.jitterMax
	rate := vn.rateDown
	if link.toServer {
		rate = vn.rateUp
	}
	vn.stats.chunks++
	vn.stats.chunkBytes += uint64(size)

	dir := uint64(0)
	if link.toServer {
		dir = 1 << 63
	}
	base := splitmix64(vn.seed ^ dir ^ (uint64(link.client)+3)<<40 ^ (uint64(link.server)+3)<<20 ^ seq)
	v := chunkVerdict{corruptBit: -1, delay: minLat}
	if maxLat > minLat {
		v.delay = minLat + time.Duration(splitmix64(base^0x1A)%uint64(maxLat-minLat+1))
	}
	if jitterMax > 0 {
		v.delay += time.Duration(unitFloat(splitmix64(base^0x03)) * float64(jitterMax))
	}
	if rate > 0 {
		v.delay += time.Duration(int64(size) * int64(time.Second) / rate)
	}
	if dropP > 0 && unitFloat(splitmix64(base^0x0D)) < dropP {
		v.drop = true
		vn.stats.dropped++
		vn.mu.Unlock()
		return v
	}
	if corruptP > 0 && size > 0 && unitFloat(splitmix64(base^0x04)) < corruptP {
		v.corruptBit = int64(splitmix64(base^0x05) % uint64(size*8))
		vn.stats.corrupted++
	}
	vn.mu.Unlock()
	return v
}

// unitFloat maps a decision word to [0, 1).
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// VListener is a virtual listener; it implements net.Listener.
type VListener struct {
	net *VirtualNet
	id  quorum.ServerID

	mu      sync.Mutex
	queue   []*vconn
	waiting bool
	ch      vtime.Chan[struct{}]
	closed  bool
}

var _ net.Listener = (*VListener)(nil)

// enqueue hands a server-side endpoint to the acceptor, reporting false if
// the listener is closed.
func (l *VListener) enqueue(c *vconn) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.queue = append(l.queue, c)
	l.wakeLocked()
	l.mu.Unlock()
	return true
}

// wakeLocked wakes a parked acceptor; one tracked signal per waiter.
func (l *VListener) wakeLocked() {
	if l.waiting {
		l.waiting = false
		l.ch.Send(struct{}{})
	}
}

// Accept implements net.Listener.
func (l *VListener) Accept() (net.Conn, error) {
	for {
		l.mu.Lock()
		if len(l.queue) > 0 {
			c := l.queue[0]
			l.queue = l.queue[1:]
			l.mu.Unlock()
			return c, nil
		}
		if l.closed {
			l.mu.Unlock()
			return nil, net.ErrClosed
		}
		l.waiting = true
		l.mu.Unlock()
		l.ch.Recv()
	}
}

// Close implements net.Listener. It stops Accept; the binding itself is
// removed by VirtualNet.Deregister (a closed-but-bound listener models a
// server that stopped accepting without leaving the membership: dials
// fail with a reset rather than an unknown address).
func (l *VListener) Close() error {
	l.close()
	return nil
}

func (l *VListener) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	pending := l.queue
	l.queue = nil
	l.wakeLocked()
	l.mu.Unlock()
	for _, c := range pending {
		c.reset(errVConnReset)
	}
}

// Addr implements net.Listener.
func (l *VListener) Addr() net.Addr { return vAddr(fmt.Sprintf("virtual:%d", l.id)) }

// vAddr is the net.Addr of virtual endpoints.
type vAddr string

func (a vAddr) Network() string { return "virtual" }
func (a vAddr) String() string  { return string(a) }

// vchunk is one scheduled unit of stream data (or a FIN), with its place in
// the clock's fire order.
type vchunk struct {
	mark vtime.Mark
	data []byte
	fin  bool
}

// vconn is one endpoint of a virtual byte-stream pair. It implements
// net.Conn. Writes never block — they consult the fault plane, copy the
// chunk, and queue it at the peer under a vtime.Mark taken where the write
// happens. Marks of one direction are monotone, so the queue is in fire
// order, and the receiving end keeps one alarm armed at its head: the
// alarm's callback (land) releases the head chunk and re-arms at the next,
// so a chunk costs no timer of its own and lands exactly where a timer made
// for it would have fired. The TCP stack reads through a sink (setSink);
// Read blocks until delivery releases bytes (parked under a SimClock).
//
// Both endpoints of a pair share one stream mutex (pmu): writes touch the
// peer's pending queue and resets touch both ends, so a single lock keeps
// the two directions from deadlocking against each other.
type vconn struct {
	net            *VirtualNet
	client, server quorum.ServerID
	toServer       bool // direction of this endpoint's writes
	peer           *vconn

	pmu *sync.Mutex // shared stream mutex, guards everything below on BOTH ends

	pending fifo[vchunk] // written by peer, not yet released by the clock
	alarm   *vtime.Alarm // armed at pending's head while it is not empty
	readBuf []byte       // released, readable
	eof     bool         // peer's FIN released
	closed  bool         // local Close
	rstErr  error        // fault-plane reset
	waiting bool
	readCh  vtime.Chan[struct{}]

	sink    func(p []byte, err error) bool // see setSink; nil again once it is done
	pumping bool                           // a goroutine is delivering to sink

	last vtime.Mark // writer side: the mark of the last chunk sent
}

var _ net.Conn = (*vconn)(nil)

// Read implements net.Conn.
func (c *vconn) Read(p []byte) (int, error) {
	for {
		c.pmu.Lock()
		if err := c.rstErr; err != nil {
			c.pmu.Unlock()
			return 0, err
		}
		if c.closed {
			c.pmu.Unlock()
			return 0, net.ErrClosed
		}
		if len(c.readBuf) > 0 {
			n := copy(p, c.readBuf)
			c.readBuf = c.readBuf[n:]
			c.pmu.Unlock()
			return n, nil
		}
		if c.eof {
			c.pmu.Unlock()
			return 0, io.EOF
		}
		c.waiting = true
		c.pmu.Unlock()
		c.readCh.Recv()
	}
}

// wakeLocked wakes the reader: a parked Read, one tracked signal per
// waiter, or the sink, on a worker, unless a delivery is under way.
func (c *vconn) wakeLocked() {
	if c.waiting {
		c.waiting = false
		c.readCh.Send(struct{}{})
	}
	if c.sink != nil && !c.pumping {
		c.net.sched.Go(func() {
			c.pmu.Lock()
			c.pumpLocked()
		})
	}
}

// setSink makes fn the reader in place of Read: released bytes at once,
// then each chunk where it lands (land), in order, in Write's copy; the
// terminal error (reset, net.ErrClosed, io.EOF after the data) exactly once;
// nothing after it or after fn returns false. fn never runs under pmu nor
// reentrantly (one deliverer at a time, pumping). A Close or reset outside a
// delivery wakes fn on a worker, not on the caller, which may hold a lock fn
// takes (failAll closes under tcpConn.mu).
func (c *vconn) setSink(fn func(p []byte, err error) bool) {
	c.pmu.Lock()
	c.sink = fn
	c.pumpLocked()
}

// pumpLocked hands the sink what it is owed, in Read's precedence, until
// nothing is, unless another goroutine is at it; without a sink it wakes a
// parked Read. Call with pmu held; it unlocks.
func (c *vconn) pumpLocked() {
	if c.sink == nil || c.pumping {
		c.wakeLocked()
		c.pmu.Unlock()
		return
	}
	c.pumping = true
	for fn := c.sink; fn != nil; fn = c.sink {
		var p []byte
		var err error
		switch {
		case c.rstErr != nil:
			err = c.rstErr
		case c.closed:
			err = net.ErrClosed
		case len(c.readBuf) > 0:
			p, c.readBuf = c.readBuf, nil
		case c.eof:
			err = io.EOF
		}
		if p == nil && err == nil {
			break
		}
		c.pmu.Unlock()
		more := fn(p, err)
		c.pmu.Lock()
		if err != nil || !more {
			c.sink = nil
		}
	}
	c.pumping = false
	c.pmu.Unlock()
}

// Write implements net.Conn: consult the fault plane, copy the chunk, and
// send it to the peer. Delivery deadlines are monotone per direction, so the
// stream never reorders internally even when jitter varies across chunks.
// The stream mutex is held throughout, so a write takes it, the network's
// lock and the clock's once each.
func (c *vconn) Write(p []byte) (int, error) {
	c.pmu.Lock()
	if err := c.writeErrLocked(); err != nil {
		c.pmu.Unlock()
		return 0, err
	}
	v := c.net.verdict(vlinkKey{client: c.client, server: c.server, toServer: c.toServer}, len(p))
	switch {
	case v.stalled:
		// The write reports success and nothing arrives at the peer.
		c.pmu.Unlock()
		return len(p), nil
	case v.drop:
		// A gap in a byte stream is unrecoverable for the framing behind
		// it: surface the loss as a connection reset, the stream-transport
		// analogue of ErrDropped.
		c.pmu.Unlock()
		c.reset(errVConnReset)
		return 0, errVConnReset
	}
	data := make([]byte, len(p))
	copy(data, p)
	if v.corruptBit >= 0 {
		data[v.corruptBit/8] ^= 1 << (v.corruptBit % 8)
	}
	c.sendLocked(vchunk{data: data}, v.delay)
	c.pmu.Unlock()
	return len(p), nil
}

func (c *vconn) writeErrLocked() error {
	if c.rstErr != nil {
		return c.rstErr
	}
	if c.closed {
		return net.ErrClosed
	}
	return nil
}

// sendLocked queues ch at the peer, due delay from now but not before the
// chunk ahead of it, under a mark taken here, where a timer per chunk would
// have been made; a chunk that finds the queue empty arms the peer's alarm.
// pmu must be held.
func (c *vconn) sendLocked(ch vchunk, delay time.Duration) {
	ch.mark = c.net.clock.Mark(delay).NotBefore(c.last)
	c.last = ch.mark
	peer := c.peer
	peer.pending.push(ch)
	if peer.pending.len() == 1 {
		peer.alarm.ArmAt(ch.mark)
	}
}

// land is the delivery alarm's callback: it releases the head chunk to the
// reader, re-arms at the next chunk's mark and hands the reader what it is
// owed. The queue is empty only after a reset whose Stop came too late for a
// wall-clock fire.
func (c *vconn) land() {
	c.pmu.Lock()
	if c.pending.len() > 0 {
		ch := c.pending.pop()
		switch {
		case ch.fin:
			c.eof = true
		case len(c.readBuf) == 0:
			c.readBuf = ch.data // Write's copy: the chunk is the buffer
		default:
			c.readBuf = append(c.readBuf, ch.data...)
		}
		if c.pending.len() > 0 {
			c.alarm.ArmAt(c.pending.front().mark)
		}
	}
	c.pumpLocked()
}

// Close implements net.Conn: local reads and writes fail from now on, and
// a FIN is scheduled behind any bytes already in flight, so the peer
// drains delivered data before seeing io.EOF — TCP's half-close ordering.
func (c *vconn) Close() error {
	c.pmu.Lock()
	if c.closed || c.rstErr != nil {
		c.pmu.Unlock()
		return nil
	}
	c.closed = true
	c.wakeLocked()
	// The FIN rides the normal delivery schedule (minimum latency for its
	// link, no fault draws: losing a FIN could only stall the peer's read
	// loop forever, which no real stack allows — timeouts reap it).
	vn := c.net
	vn.mu.Lock()
	minLat := vn.minLat
	vn.mu.Unlock()
	c.sendLocked(vchunk{fin: true}, minLat)
	c.pmu.Unlock()
	c.net.dropConn(c)
	return nil
}

// reset kills both endpoints immediately (TCP RST): buffered and in-flight
// data is discarded, blocked readers wake with the error, writers fail.
func (c *vconn) reset(err error) {
	c.net.dropConn(c)
	c.net.mu.Lock()
	c.net.stats.resets++
	c.net.mu.Unlock()
	c.pmu.Lock()
	for _, e := range [2]*vconn{c, c.peer} {
		if e.rstErr == nil {
			e.rstErr = err
			e.pending = fifo[vchunk]{}
			e.alarm.Stop()
			e.readBuf = nil
			e.wakeLocked()
		}
	}
	c.pmu.Unlock()
}

// LocalAddr implements net.Conn.
func (c *vconn) LocalAddr() net.Addr {
	if c.toServer {
		return vAddr(fmt.Sprintf("virtual:client:%d", c.client))
	}
	return vAddr(fmt.Sprintf("virtual:%d", c.server))
}

// RemoteAddr implements net.Conn.
func (c *vconn) RemoteAddr() net.Addr {
	if c.toServer {
		return vAddr(fmt.Sprintf("virtual:%d", c.server))
	}
	return vAddr(fmt.Sprintf("virtual:client:%d", c.client))
}

// SetDeadline implements net.Conn. The virtual transport has no deadline
// support (the TCP stack above it never sets one; cancellation rides the
// per-call contexts and the client's call timeout instead).
func (c *vconn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.Conn.
func (c *vconn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline implements net.Conn.
func (c *vconn) SetWriteDeadline(time.Time) error { return nil }

// fifo is a queue whose storage is reused: pop advances a head index, and a
// push into a full slice first slides what is left to the front.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }
func (q *fifo[T]) front() T { return q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
