package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// Codec selects the serialization the TCP transport uses. Both ends of a
// connection must agree (the framings are not self-describing).
type Codec int

// Codecs.
const (
	// CodecBinary is the hand-rolled length-prefixed binary codec of
	// internal/wire (codec.go): the data-plane fast path. Default.
	CodecBinary Codec = iota
	// CodecBinaryFlate is the binary codec with DEFLATE-compressed payload
	// slots (wire.TagCompressed): the WAN profile. Frames below the
	// compression threshold — or that deflate cannot shrink — go out in
	// the legacy binary layout byte-for-byte, so only byte-limited links
	// pay the compression CPU where it buys bandwidth. A CodecBinary peer
	// receiving a compressed frame fails loudly with wire.ErrUnknownTag
	// (both ends must agree on the codec).
	CodecBinaryFlate
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case CodecBinary:
		return "binary"
	case CodecBinaryFlate:
		return "binary-flate"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// ParseCodec maps a codec name (as printed by String) back to the Codec,
// for -codec flags.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "binary":
		return CodecBinary, nil
	case "binary-flate":
		return CodecBinaryFlate, nil
	default:
		return 0, fmt.Errorf("transport: unknown codec %q (want binary or binary-flate)", s)
	}
}

// maxFrameSize bounds a single binary frame (64 MiB); a length prefix beyond
// it indicates a corrupt stream or a protocol mismatch, and failing fast
// beats attempting the allocation.
const maxFrameSize = 64 << 20

// readBufSize sizes a socket read loop's buffer. Typical frames (read/write
// RPCs with small values) are well under 4 KiB, so one read takes several
// coalesced frames per syscall.
const readBufSize = 32 << 10

// ConnCodecStats counts one connection's traffic through the message codec:
// envelope bodies encoded and decoded, and their byte volume. These
// counters are kept per connection — each connection's
// goroutines increment their own uncontended cache line — and aggregated
// into TCPStats on snapshot, replacing the process-wide counters the wire
// package used to maintain on the hot path (one shared cache line hammered
// by every connection in the process).
type ConnCodecStats struct {
	MessagesEncoded uint64 `json:"messages_encoded"`
	MessagesDecoded uint64 `json:"messages_decoded"`
	BytesEncoded    uint64 `json:"bytes_encoded"`
	BytesDecoded    uint64 `json:"bytes_decoded"`
	// Compression accounting (CodecBinaryFlate, encode side; other codecs
	// leave these zero): RawBytes is the uncompressed size of encoded
	// payload slots, WireBytes what they occupied on the wire after the
	// threshold/incompressible-fallback decision, and BytesSaved the
	// difference — the bandwidth deflate actually bought on this
	// connection.
	RawBytes   uint64 `json:"raw_bytes"`
	WireBytes  uint64 `json:"wire_bytes"`
	BytesSaved uint64 `json:"bytes_saved"`
}

// add accumulates o into s.
func (s *ConnCodecStats) add(o ConnCodecStats) {
	s.MessagesEncoded += o.MessagesEncoded
	s.MessagesDecoded += o.MessagesDecoded
	s.BytesEncoded += o.BytesEncoded
	s.BytesDecoded += o.BytesDecoded
	s.RawBytes += o.RawBytes
	s.WireBytes += o.WireBytes
	s.BytesSaved += o.BytesSaved
}

// codecCounters is the mutable per-connection form of ConnCodecStats.
type codecCounters struct {
	msgEnc, msgDec, bytesEnc, bytesDec atomic.Uint64
	rawBytes, wireBytes, bytesSaved    atomic.Uint64
}

func (c *codecCounters) countEncode(n int) { c.msgEnc.Add(1); c.bytesEnc.Add(uint64(n)) }
func (c *codecCounters) countDecode(n int) { c.msgDec.Add(1); c.bytesDec.Add(uint64(n)) }

// countFlate records one compressed-capable encode's raw-vs-wire outcome.
func (c *codecCounters) countFlate(r wire.FlateResult) {
	c.rawBytes.Add(uint64(r.RawBytes))
	c.wireBytes.Add(uint64(r.WireBytes))
	if r.RawBytes > r.WireBytes {
		c.bytesSaved.Add(uint64(r.RawBytes - r.WireBytes))
	}
}

func (c *codecCounters) snapshot() ConnCodecStats {
	return ConnCodecStats{
		MessagesEncoded: c.msgEnc.Load(),
		MessagesDecoded: c.msgDec.Load(),
		BytesEncoded:    c.bytesEnc.Load(),
		BytesDecoded:    c.bytesDec.Load(),
		RawBytes:        c.rawBytes.Load(),
		WireBytes:       c.wireBytes.Load(),
		BytesSaved:      c.bytesSaved.Load(),
	}
}

// codecRegistry tracks an endpoint's live connections' codec counters and
// folds finished connections into a closed total, so TCPStats aggregation
// never loses counts when connections churn.
type codecRegistry struct {
	mu     sync.Mutex
	live   map[*codecCounters]struct{}
	closed ConnCodecStats
}

func (r *codecRegistry) open() *codecCounters {
	c := &codecCounters{}
	r.mu.Lock()
	if r.live == nil {
		r.live = make(map[*codecCounters]struct{})
	}
	r.live[c] = struct{}{}
	r.mu.Unlock()
	return c
}

func (r *codecRegistry) close(c *codecCounters) {
	r.mu.Lock()
	if _, ok := r.live[c]; ok {
		delete(r.live, c)
		r.closed.add(c.snapshot())
	}
	r.mu.Unlock()
}

// total returns closed + live aggregate.
func (r *codecRegistry) total() ConnCodecStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.closed
	for c := range r.live {
		t.add(c.snapshot())
	}
	return t
}

// perConn returns a snapshot per live connection.
func (r *codecRegistry) perConn() []ConnCodecStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ConnCodecStats, 0, len(r.live))
	for c := range r.live {
		out = append(out, c.snapshot())
	}
	return out
}

// TCPStats counts one TCP endpoint's wire activity. All counters are
// cumulative; obtain snapshots via TCPServer.Stats or TCPClient.Stats.
type TCPStats struct {
	// Conns is the number of connections accepted (server) or dialed
	// (client) over the endpoint's lifetime.
	Conns uint64
	// FramesRead and FramesWritten count complete frames (requests or
	// replies) moved across the wire.
	FramesRead    uint64
	FramesWritten uint64
	// BytesRead and BytesWritten count frame bytes, including length
	// prefixes, as cut by the frame feed and appended to the frame writer.
	BytesRead    uint64
	BytesWritten uint64
	// Flushes counts the frame writers' conn.Write calls — one syscall on a
	// real socket, one chunk on a VirtualNet; WritesCoalesced counts frames
	// that shared another frame's Write (FramesWritten - Flushes):
	// Flushes + WritesCoalesced == FramesWritten once the writers are idle,
	// and WritesCoalesced/FramesWritten is the syscall savings of
	// coalescing.
	Flushes         uint64
	WritesCoalesced uint64
	// Connection-lifecycle counters: always zero on a server, and on a
	// client unless it was built with an active
	// TCPClientOptions.Lifecycle. DialsCoalesced counts
	// callers that joined another caller's in-flight dial instead of
	// dialing themselves (singleflight); BackoffFastFails counts calls
	// failed immediately inside a redial-backoff window.
	DialsCoalesced   uint64
	BackoffFastFails uint64
	// BreakerTrips, BreakerHalfOpens and BreakerCloses count circuit
	// breaker transitions; BreakerFastFails counts calls an open breaker
	// rejected with ErrServerDown.
	BreakerTrips     uint64
	BreakerHalfOpens uint64
	BreakerCloses    uint64
	BreakerFastFails uint64
	// Codec aggregates the per-connection message-codec counters (closed
	// connections included). See ConnCodecStats.
	Codec ConnCodecStats
}

// tcpCounters is the shared mutable form of TCPStats' frame counters.
type tcpCounters struct {
	conns, framesRead, framesWritten, bytesRead, bytesWritten, flushes atomic.Uint64

	// Lifecycle counters (client side only; see TCPStats).
	dialsCoalesced, backoffFastFails atomic.Uint64
	breakerTrips, breakerHalfOpens   atomic.Uint64
	breakerCloses, breakerFastFails  atomic.Uint64
}

func (c *tcpCounters) snapshot() TCPStats {
	s := TCPStats{
		Conns:         c.conns.Load(),
		FramesRead:    c.framesRead.Load(),
		FramesWritten: c.framesWritten.Load(),
		BytesRead:     c.bytesRead.Load(),
		BytesWritten:  c.bytesWritten.Load(),
		Flushes:       c.flushes.Load(),

		DialsCoalesced:   c.dialsCoalesced.Load(),
		BackoffFastFails: c.backoffFastFails.Load(),
		BreakerTrips:     c.breakerTrips.Load(),
		BreakerHalfOpens: c.breakerHalfOpens.Load(),
		BreakerCloses:    c.breakerCloses.Load(),
		BreakerFastFails: c.breakerFastFails.Load(),
	}
	// Each flush carries at least one frame, so the difference is exactly
	// the frames that rode along on another frame's Write. (The two loads
	// are not one atomic snapshot of a busy writer, hence the guard.)
	if s.FramesWritten > s.Flushes {
		s.WritesCoalesced = s.FramesWritten - s.Flushes
	}
	return s
}

// frameFeed cuts a byte stream into length-prefixed frames, however its
// bytes arrive (see readFrames). A frame within one feed is handed over in
// place; only one split across feeds is copied, into part.
type frameFeed struct {
	stats *tcpCounters
	part  []byte // the start of a frame the last feed ended inside
}

// feed hands the body of each frame p completes to onFrame, in order, and
// keeps a trailing partial frame. It reports false, ending the stream, on a
// prefix that is corrupt or above maxFrameSize (before any of its body is
// kept) or a frame onFrame refuses. A body aliases p or part: onFrame must
// copy out what it keeps (the wire decoders do).
func (f *frameFeed) feed(p []byte, onFrame func(body []byte) bool) bool {
	if len(f.part) > 0 {
		var head [binary.MaxVarintLen64 + 1]byte // enough to tell an overlong prefix
		k := copy(head[:], f.part)
		size, pl := frameHead(head[:k+copy(head[k:], p)])
		if pl < 0 {
			return false
		}
		need := len(p)
		if pl > 0 {
			need = min(need, pl+size-len(f.part))
		}
		f.keep(p[:need], pl+size)
		if p = p[need:]; pl == 0 || len(f.part) < pl+size {
			return true
		}
		frame := f.part
		if f.part = f.part[:0]; cap(f.part) > 1<<20 { // one gossip frame must not pin megabytes
			f.part = nil
		}
		if !f.cut(frame, onFrame) {
			return false
		}
	}
	return f.cut(p, onFrame)
}

// cut hands over every whole frame p holds and keeps the rest.
func (f *frameFeed) cut(p []byte, onFrame func([]byte) bool) bool {
	for len(p) > 0 {
		size, pl := frameHead(p)
		if pl < 0 {
			return false
		}
		if pl == 0 || pl+size > len(p) {
			f.keep(p, pl+size)
			return true
		}
		f.stats.framesRead.Add(1)
		f.stats.bytesRead.Add(uint64(pl + size))
		if !onFrame(p[pl : pl+size]) {
			return false
		}
		p = p[pl+size:]
	}
	return true
}

// frameHead parses the length prefix p starts with: the body size, and the
// prefix length, 0 while incomplete and < 0 if corrupt or too large.
func frameHead(p []byte) (size, n int) {
	v, n := binary.Uvarint(p)
	if n < 0 || v > maxFrameSize {
		return 0, -1
	}
	return int(v), n
}

// keep appends b to part, doubling its storage as bytes arrive and going to
// the frame's size (total, 0 while unknown) once doubling would pass half of
// it: a frame pins what its sender sent, not what its prefix claims, at a
// constant number of copies per byte.
func (f *frameFeed) keep(b []byte, total int) {
	if n := len(f.part) + len(b); n > cap(f.part) {
		c := max(2*cap(f.part), n)
		if total > 0 && 2*c > total {
			c = total
		}
		f.part = append(make([]byte, 0, c), f.part...)
	}
	f.part = append(f.part, b...)
}

// readFrames hands each frame that arrives on conn to onFrame, in order, and
// calls end once the stream ends or onFrame refuses a frame. A vconn's
// frames are cut where its chunks land (vconn.setSink), so there onFrame and
// end must not block; a socket gets a read loop, started by sched.
func readFrames(conn net.Conn, stats *tcpCounters, sched vtime.Sched, onFrame func([]byte) bool, end func()) {
	f := &frameFeed{stats: stats}
	if vc, ok := conn.(*vconn); ok {
		vc.setSink(func(p []byte, err error) bool {
			if err == nil && f.feed(p, onFrame) {
				return true
			}
			end()
			return false
		})
		return
	}
	sched.Go(func() {
		buf := make([]byte, readBufSize)
		for {
			n, err := conn.Read(buf)
			if n > 0 && !f.feed(buf[:n], onFrame) || err != nil {
				end()
				return
			}
		}
	})
}

// frameWriter serializes frame writes onto one connection with leader-flushed
// group commit and no goroutine of its own. A writer appends its frame to
// the pending buffer under mu; if no flush is in progress it becomes the
// leader: swap pending for the spare buffer, unlock, hand the batch to the
// socket in one conn.Write, relock, and repeat until pending is empty.
// Writers that arrive while the leader is inside Write append behind it and
// return at once — their frames ride the leader's next Write — so a burst
// still reaches the socket in few syscalls, nobody waits for a flush they do
// not lead, and on an idle connection a frame goes out on its writer's own
// stack with no wake-up in between.
//
// One conn.Write is one flush (TCPStats.Flushes); every further frame in
// its batch is coalesced. Nothing here blocks on a channel, so under a
// vtime.SimClock there is nothing to track: the leader is a running worker
// for the whole flush, and a frame is on the (virtual) wire at the instant
// it was written.
//
// A client's leader is whoever is starting a call — an operation's gather,
// fanning out — so it must not wait on a peer: on a socket (sock set) it
// makes one non-blocking write, and a worker started by sched writes what
// the socket did not take and leads the flushes after it. A vconn's Write
// never blocks, so there the leader always finishes its own flush.
type frameWriter struct {
	conn  net.Conn
	stats *tcpCounters
	sock  *sockWriter // nil: the leader writes with conn.Write
	sched vtime.Sched

	mu       sync.Mutex
	pending  []byte // frames appended since the last swap
	spare    []byte // the drained buffer of the previous flush
	flushing bool   // a leader is between its first swap and its last Write
	err      error  // sticky: the first write error, or ErrClosed
}

func newFrameWriter(conn net.Conn, stats *tcpCounters) *frameWriter {
	return &frameWriter{conn: conn, stats: stats}
}

// close fails every later write with ErrClosed. Callers close the
// connection first, so a leader blocked in Write against a peer that has
// stopped reading fails promptly (frames still pending at teardown are
// lost, which callers already treat as a transient connection failure).
func (w *frameWriter) close() {
	w.mu.Lock()
	if w.err == nil {
		w.err = ErrClosed
	}
	w.mu.Unlock()
}

// commit counts the frame just appended and, unless a leader is already
// flushing, leads the flush. Call with mu held; it unlocks. A follower
// returns nil; the leader returns the writer's sticky error, which every
// later writer sees too.
func (w *frameWriter) commit() error {
	w.stats.framesWritten.Add(1)
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	return w.lead()
}

// lead flushes pending until it is empty: mu held on entry, released on
// return. A leader that hands the rest of a flush to a worker returns nil
// at once, its frame queued like a follower's.
func (w *frameWriter) lead() error {
	for len(w.pending) > 0 && w.err == nil {
		buf := w.pending
		w.pending, w.spare = w.spare[:0], nil
		w.mu.Unlock()
		w.stats.flushes.Add(1)
		var err error
		if w.sock == nil {
			_, err = w.conn.Write(buf)
		} else if n, werr := w.sock.write(buf); werr != nil || n == len(buf) {
			err = werr
		} else {
			w.sched.Go(func() {
				_, rest := w.conn.Write(buf[n:])
				w.mu.Lock()
				w.recycle(buf, rest)
				if w.lead() != nil {
					// Nobody waits on this flush to see the error: fail the
					// stream, so the read loop fails the calls it carried.
					w.conn.Close()
				}
			})
			return nil
		}
		w.mu.Lock()
		w.recycle(buf, err)
	}
	w.flushing = false
	err := w.err
	w.mu.Unlock()
	return err
}

// recycle keeps a flushed buffer as the spare and records a write error.
// Call with mu held.
func (w *frameWriter) recycle(buf []byte, err error) {
	// Don't let one huge gossip frame pin megabytes in either buffer (same
	// cap as frameFeed and wire.PutBuffer).
	if cap(buf) <= 1<<20 {
		w.spare = buf[:0]
	}
	if err != nil && w.err == nil {
		w.err = err
	}
}

// writeFrame writes a length-prefixed binary frame.
func (w *frameWriter) writeFrame(body []byte) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	before := len(w.pending)
	w.pending = binary.AppendUvarint(w.pending, uint64(len(body)))
	w.pending = append(w.pending, body...)
	w.stats.bytesWritten.Add(uint64(len(w.pending) - before))
	return w.commit()
}
