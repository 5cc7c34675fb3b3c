package transport

// The read side of a connection: one frame feed, filled by a socket's read
// loop or by a vconn's sink where each chunk lands. The feed must cut any
// chunking of a stream into the same frames, copy a large frame a constant
// number of times, and never pin memory a prefix claims but its sender has
// not sent; the sink must hand over exactly what Read would, at the instant
// Read would, with no goroutine parked on the connection.

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// readEach cuts conn's stream into frames as a socket's read loop does,
// until onFrame refuses one, a prefix is bad (nil error) or the read fails
// (its error).
func readEach(conn net.Conn, onFrame func(body []byte) bool) error {
	f := frameFeed{stats: new(tcpCounters)}
	buf := make([]byte, readBufSize)
	for {
		n, err := conn.Read(buf)
		if n > 0 && !f.feed(buf[:n], onFrame) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// appendFrame appends body's length-prefixed frame to b.
func appendFrame(b []byte, body string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(body))), body...)
}

// feedResult is what a frame feed made of a stream.
type feedResult struct {
	frames                []string
	framesRead, bytesRead uint64
	ok                    bool
}

// feedChunks feeds chunks in order until the feed refuses one, refusing
// every frame whose body starts with 0xEE, and reports the feed's result and
// how many bytes it was given.
func feedChunks(chunks [][]byte) (feedResult, *frameFeed, int) {
	st := new(tcpCounters)
	f := &frameFeed{stats: st}
	r := feedResult{ok: true}
	onFrame := func(body []byte) bool {
		r.frames = append(r.frames, string(body))
		return len(body) == 0 || body[0] != 0xEE
	}
	given := 0
	for _, c := range chunks {
		given += len(c)
		if r.ok = f.feed(c, onFrame); !r.ok {
			break
		}
	}
	r.framesRead, r.bytesRead = st.framesRead.Load(), st.bytesRead.Load()
	return r, f, given
}

// FuzzFrameFeed: any chunking of a stream gives the frames, counters and
// verdict of feeding it whole, and a feed stopped by a bad prefix holds no
// more than it was given.
func FuzzFrameFeed(f *testing.F) {
	stream := appendFrame(appendFrame(appendFrame(nil, "a"), strings.Repeat("b", 300)), "")
	f.Add(stream, []byte{1, 2, 3})
	f.Add(append(appendFrame(nil, "ok"), bytes.Repeat([]byte{0xFF}, 12)...), []byte{2})
	f.Add(append(binary.AppendUvarint(nil, maxFrameSize+1), 1, 2, 3), []byte{1})
	f.Add(append(binary.AppendUvarint(nil, maxFrameSize), 7), []byte{0})
	f.Add(append([]byte{0x80, 0x00}, appendFrame(nil, "\xeerefused")...), []byte{5, 1})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		whole, _, _ := feedChunks([][]byte{stream})
		var chunks [][]byte
		for p, i := stream, 0; len(p) > 0; i++ {
			n := len(p) // an empty chunk is a chunk, but the stream must run out
			if len(cuts) > 0 && i < len(stream) {
				n = min(n, int(cuts[i%len(cuts)])%19)
			}
			chunks = append(chunks, p[:n])
			p = p[n:]
		}
		split, feed, given := feedChunks(chunks)
		if whole.ok != split.ok || whole.framesRead != split.framesRead || whole.bytesRead != split.bytesRead ||
			!slices.Equal(whole.frames, split.frames) {
			t.Fatalf("fed whole %+v, fed in %d chunks %+v", whole, len(chunks), split)
		}
		if !split.ok && len(feed.part) > given {
			t.Fatalf("stopped holding %d bytes after being given %d", len(feed.part), given)
		}
	})
}

// TestFrameFeedLinear feeds a 4 MiB frame in 4 KiB pieces: the feed
// allocates less than three times the frame, and keeps at most 1 MiB once
// the frame is handed over.
func TestFrameFeedLinear(t *testing.T) {
	const size, piece = 4 << 20, 4 << 10
	stream := appendFrame(nil, strings.Repeat("\xa5", size))
	f := frameFeed{stats: new(tcpCounters)}
	got := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := stream; len(p) > 0; {
		n := min(piece, len(p))
		if !f.feed(p[:n], func(body []byte) bool { got += len(body); return true }) {
			t.Fatal("feed refused a well-formed frame")
		}
		p = p[n:]
	}
	runtime.ReadMemStats(&after)
	if got != size {
		t.Fatalf("handed over %d body bytes, want %d", got, size)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 3*size {
		t.Errorf("feeding a %d-byte frame in %d-byte pieces allocated %d bytes, want < 3x", size, piece, alloc)
	}
	if cap(f.part) > 1<<20 {
		t.Errorf("the feed retains %d bytes after the frame, want at most 1 MiB", cap(f.part))
	}
}

// heapInUse is the heap in use after a collection.
func heapInUse() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// heapStaysUnder fails t if, within a short wait, the heap in use rises by
// bound or more above base.
func heapStaysUnder(t *testing.T, base, bound uint64) {
	t.Helper()
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if h := heapInUse(); h >= base+bound {
			t.Fatalf("heap in use rose by %d MiB while the connections waited, want < %d MiB", (h-base)>>20, bound>>20)
		}
	}
}

// TestHostilePrefixPinsNoMemory: a peer that sends a length prefix claiming
// maxFrameSize and then one byte of body costs its reader only what it sent.
// Four such connections must raise the heap by less than 8 MiB, on a server
// and on a client.
func TestHostilePrefixPinsNoMemory(t *testing.T) {
	const conns, bound = 4, 8 << 20
	hostile := append(binary.AppendUvarint(nil, maxFrameSize), 0)

	t.Run("server", func(t *testing.T) {
		srv, err := ListenTCPCodec("127.0.0.1:0", new(bothSides), CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		base := heapInUse()
		for i := 0; i < conns; i++ {
			c, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(hostile); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); srv.Stats().Conns < conns; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("server accepted %d of %d connections", srv.Stats().Conns, conns)
			}
		}
		heapStaysUnder(t, base, bound)
	})

	t.Run("client", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var served atomic.Int64
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close() // held open until the listener closes
				if _, err := c.Write(hostile); err == nil {
					served.Add(1)
				}
			}
		}()
		addrs := make(map[quorum.ServerID]string, conns)
		for id := quorum.ServerID(0); id < conns; id++ {
			addrs[id] = l.Addr().String()
		}
		client := NewTCPClientOpts(addrs, TCPClientOptions{})
		base := heapInUse()
		var calls sync.WaitGroup
		for id := range addrs {
			calls.Add(1)
			go func() {
				defer calls.Done()
				client.Call(context.Background(), id, wire.ReadRequest{Key: "k"})
			}()
		}
		for deadline := time.Now().Add(5 * time.Second); served.Load() < conns; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("hostile server reached %d of %d connections", served.Load(), conns)
			}
		}
		heapStaysUnder(t, base, bound)
		client.Close()
		calls.Wait()
	})
}

// goid is the calling goroutine's id.
func goid() uint64 {
	var buf [64]byte
	id, _ := strconv.ParseUint(string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1]), 10, 64) // "goroutine <id> [running]:"
	return id
}

// handOver is one thing a reader was given, and when and where.
type handOver struct {
	at   time.Duration
	data string
	err  error
	g    uint64 // the goroutine it was handed over on (sink side only)
}

// TestVConnSinkContract runs each row's stream twice over one SimClock, on
// two VirtualNets with one seed (so every chunk lands at the same instant on
// both): once into a sink, once into a worker that Reads. The sink must be
// handed exactly what Read returns, at the virtual instant Read returns it,
// never reentrantly — and, for a Close from outside, on a worker of its own.
func TestVConnSinkContract(t *testing.T) {
	long := strings.Repeat("b", 200) // a two-byte prefix
	fr := appendFrame(nil, long)
	type pair struct{ cl, sv *vconn }
	rows := []struct {
		name   string
		late   time.Duration // when the sink is set and the twin starts reading
		react  string        // on the first hand-over: "close" the reader's end, or "stop" reading
		frames int           // frames the reader is handed
		end    error         // the terminal error it is handed last, if any
		script func(sc *vtime.SimClock, each func(func(pair)))
	}{
		{name: "prefix split across chunks", frames: 1, script: func(sc *vtime.SimClock, each func(func(pair))) {
			each(func(p pair) { p.cl.Write(fr[:1]) })
			sc.Sleep(2 * time.Millisecond)
			each(func(p pair) { p.cl.Write(fr[1:]) })
		}},
		{name: "body split across chunks", frames: 2, script: func(sc *vtime.SimClock, each func(func(pair))) {
			each(func(p pair) { p.cl.Write(fr[:50]) })
			sc.Sleep(2 * time.Millisecond)
			each(func(p pair) { p.cl.Write(appendFrame(append([]byte(nil), fr[50:]...), "x")) })
		}},
		{name: "several frames in one chunk", frames: 3, script: func(sc *vtime.SimClock, each func(func(pair))) {
			each(func(p pair) { p.cl.Write(appendFrame(appendFrame(appendFrame(nil, "a"), "bb"), long)) })
		}},
		{name: "bytes released before setSink", late: 5 * time.Millisecond, frames: 2, script: func(sc *vtime.SimClock, each func(func(pair))) {
			each(func(p pair) { p.cl.Write(appendFrame(nil, "a")) })
			sc.Sleep(time.Millisecond)
			each(func(p pair) { p.cl.Write(appendFrame(nil, "b")) })
		}},
		{name: "FIN after data", frames: 1, end: io.EOF, script: func(sc *vtime.SimClock, each func(func(pair))) {
			each(func(p pair) {
				p.cl.Write(appendFrame(nil, "a"))
				p.cl.Close()
			})
		}},
		{name: "reset mid-frame", end: errVConnReset, script: func(sc *vtime.SimClock, each func(func(pair))) {
			each(func(p pair) { p.cl.Write(fr[:50]) })
			sc.Sleep(2 * time.Millisecond)
			each(func(p pair) { p.cl.Write(fr[50:]) }) // lands at 3ms, after the reset
			sc.Sleep(500 * time.Microsecond)
			each(func(p pair) { p.sv.reset(errVConnReset) })
		}},
		{name: "Close from inside the sink", react: "close", frames: 1, end: net.ErrClosed, script: func(sc *vtime.SimClock, each func(func(pair))) {
			each(func(p pair) { p.cl.Write(appendFrame(nil, "a")) })
			sc.Sleep(2 * time.Millisecond)
			each(func(p pair) { p.cl.Write(appendFrame(nil, "b")) })
		}},
		{name: "Close from outside", frames: 1, end: net.ErrClosed, script: func(sc *vtime.SimClock, each func(func(pair))) {
			each(func(p pair) { p.cl.Write(appendFrame(nil, "a")) })
			sc.Sleep(2 * time.Millisecond)
			each(func(p pair) { p.sv.Close() })
		}},
		{name: "sink returns false", react: "stop", frames: 1, script: func(sc *vtime.SimClock, each func(func(pair))) {
			each(func(p pair) { p.cl.Write(appendFrame(nil, "a")) })
			sc.Sleep(2 * time.Millisecond)
			each(func(p pair) { p.cl.Write(appendFrame(nil, "b")) })
			sc.Sleep(2 * time.Millisecond)
			each(func(p pair) { p.cl.Close() })
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			sc := vtime.NewSimClock()
			mk := func() pair {
				vn := NewVirtualNet(sc, 1)
				vn.SetLatency(time.Millisecond, time.Millisecond)
				l, err := vn.Listen(1)
				if err != nil {
					t.Fatal(err)
				}
				cl, err := vn.dial(ClientSource, 1)
				if err != nil {
					t.Fatal(err)
				}
				sv, err := l.Accept() // queued by the dial: no wait
				if err != nil {
					t.Fatal(err)
				}
				return pair{cl.(*vconn), sv.(*vconn)}
			}
			a, b := mk(), mk()
			var sunk, read, gotSunk, gotRead []handOver
			var closer uint64
			sc.Run(func() {
				sc.Go(func() {
					row.script(sc, func(f func(pair)) {
						closer = goid()
						f(a)
						f(b)
					})
				})
				sc.Sleep(row.late)

				inside := false
				a.sv.setSink(func(p []byte, err error) bool {
					if inside {
						t.Error("sink called reentrantly")
					}
					inside = true
					defer func() { inside = false }()
					sunk = append(sunk, handOver{at: sc.Elapsed(), data: string(p), err: err, g: goid()})
					switch {
					case row.react == "stop":
						return false
					case row.react == "close" && len(sunk) == 1:
						a.sv.Close()
					}
					return true
				})
				sc.Go(func() {
					buf := make([]byte, 1<<16)
					for {
						n, err := b.sv.Read(buf)
						read = append(read, handOver{at: sc.Elapsed(), data: string(buf[:n]), err: err})
						if err != nil || row.react == "stop" {
							return
						}
						if row.react == "close" && len(read) == 1 {
							b.sv.Close()
						}
					}
				})
				sc.Sleep(20 * time.Millisecond)
				gotSunk, gotRead = slices.Clone(sunk), slices.Clone(read) // not what teardown adds
				for _, p := range []pair{a, b} {
					p.cl.Close()
					p.sv.Close()
				}
			})

			sunk, read = gotSunk, gotRead
			if len(sunk) == 0 || len(sunk) != len(read) {
				t.Fatalf("sink was handed %d times, Read returned %d times:\n sink %+v\n read %+v", len(sunk), len(read), sunk, read)
			}
			frames := 0
			feed := frameFeed{stats: new(tcpCounters)}
			for i, s := range sunk {
				if r := read[i]; s.at != r.at || s.data != r.data || s.err != r.err {
					t.Errorf("hand-over %d: sink got %q, %v at %v; Read got %q, %v at %v", i, s.data, s.err, s.at, r.data, r.err, r.at)
				}
				if s.err != nil && (i != len(sunk)-1 || s.err != row.end) {
					t.Errorf("hand-over %d of %d is the error %v, want only a last one, %v", i+1, len(sunk), s.err, row.end)
				}
				feed.feed([]byte(s.data), func([]byte) bool { frames++; return true })
			}
			if frames != row.frames {
				t.Errorf("sink was handed %d frames, want %d", frames, row.frames)
			}
			if last := sunk[len(sunk)-1]; last.err != row.end {
				t.Errorf("sink's last hand-over is %+v, want the error %v", last, row.end)
			} else if row.name == "Close from outside" && last.g == closer {
				t.Error("a Close from outside notified the sink on the closing goroutine")
			}
		})
	}
}

// TestIdleVirtualConnectionCostsNoWorker: once its call is answered, a
// tcp-virtual connection holds no goroutine at either end — no server read
// loop, no client read loop — because its frames are read where its chunks
// land.
func TestIdleVirtualConnectionCostsNoWorker(t *testing.T) {
	const conns = 8
	sc := vtime.NewSimClock()
	vn := NewVirtualNet(sc, 1)
	addrs := make(map[quorum.ServerID]string, conns)
	var ls []net.Listener
	for id := quorum.ServerID(0); id < conns; id++ {
		l, err := vn.Listen(id)
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
		addrs[id] = l.Addr().String()
	}
	sc.Run(func() {
		var srvs []*TCPServer
		for _, l := range ls {
			srvs = append(srvs, ServeListener(l, new(bothSides), TCPOptions{Clock: sc}))
		}
		client := NewTCPClientOpts(addrs, TCPClientOptions{Clock: sc, Dial: vn.Dialer(ClientSource)})
		before := runtime.NumGoroutine()
		for id := range addrs {
			if _, err := client.Call(context.Background(), id, wire.ReadRequest{Key: "k"}); err != nil {
				t.Errorf("call %d: %v", id, err)
			}
		}
		if got := runtime.NumGoroutine() - before; got > 0 {
			t.Errorf("%d idle tcp-virtual connections hold %d goroutines, want none", conns, got)
		}
		client.Close()
		for _, s := range srvs {
			s.Close()
		}
	})
}
