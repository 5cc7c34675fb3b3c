// Throughput benchmarks for the data-plane fast path: codec encode/decode
// cost, and end-to-end read/write ops/sec over the in-memory and TCP
// transports. `make bench-json` runs exactly these and records the results
// (ops/sec, ns/op, B/op, allocs/op) in BENCH_throughput.json so the perf
// trajectory across PRs has data points; `make bench-smoke` (CI) runs them
// for one iteration to guard against bit-rot.
//
// The gob codec benchmark is the pre-fast-path baseline of the codec micro-
// benchmark, measured in the same run as the binary codec so the headline
// ratio is apples-to-apples. Gob is not a wire codec: the TCP rows run the
// binary codec only, under the sub-benchmark name they always had.
package pqs_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pqs"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/wire"
)

// benchPayload is a realistic small value (a session blob / counter-sized
// entry), the regime the paper's load analysis is about.
var benchPayload = []byte("payload-of-realistic-size-0123456789")

// codecMessages are the two hot-path messages the acceptance criteria
// target: every read returns a ReadReply, every write sends a WriteRequest.
func codecMessages() map[string]any {
	stamp := ts.Stamp{Counter: 123456, Writer: 7}
	return map[string]any{
		"ReadReply":    wire.ReadReply{Found: true, Value: benchPayload, Stamp: stamp, Sig: nil},
		"WriteRequest": wire.WriteRequest{Key: "bench-key", Value: benchPayload, Stamp: stamp, Sig: nil},
	}
}

// BenchmarkCodecBinary measures an encode+decode round trip of one envelope
// through the hand-rolled binary codec.
func BenchmarkCodecBinary(b *testing.B) {
	for name, msg := range codecMessages() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var scratch []byte
			var err error
			for i := 0; i < b.N; i++ {
				scratch, err = wire.AppendEnvelope(scratch[:0], wire.Envelope{ID: uint64(i), Payload: msg})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := wire.DecodeEnvelope(scratch); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(scratch)))
		})
	}
}

// BenchmarkCodecGob measures the same round trip through encoding/gob with a
// persistent encoder/decoder pair (the best case for gob: type descriptors
// are sent once, exactly as on a long-lived connection).
func BenchmarkCodecGob(b *testing.B) {
	wire.RegisterGob()
	for name, msg := range codecMessages() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			dec := gob.NewDecoder(&buf)
			for i := 0; i < b.N; i++ {
				if err := enc.Encode(&wire.Envelope{ID: uint64(i), Payload: msg}); err != nil {
					b.Fatal(err)
				}
				var out wire.Envelope
				if err := dec.Decode(&out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// reportOpsPerSec attaches the headline ops/sec metric.
func reportOpsPerSec(b *testing.B) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "ops/sec")
	}
}

// newThroughputMemClient is the standard throughput fixture: the paper's
// n=100, ε ≤ 1e-3 construction (q=23) over an in-memory cluster with no
// simulated latency, so the benchmark measures the protocol and data-plane
// code itself.
func newThroughputMemClient(b *testing.B) *pqs.Client {
	b.Helper()
	sys, err := pqs.New(pqs.Config{N: 100, Epsilon: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := pqs.NewCluster(pqs.ClusterConfig{N: sys.N(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	client, err := pqs.NewClient(pqs.ClientConfig{
		System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return client
}

// BenchmarkThroughputMemRead measures concurrent quorum reads over the
// in-memory transport (n=100, q=23).
func BenchmarkThroughputMemRead(b *testing.B) {
	client := newThroughputMemClient(b)
	ctx := context.Background()
	if _, err := client.Write(ctx, "bench", benchPayload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.Read(ctx, "bench"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	reportOpsPerSec(b)
}

// BenchmarkThroughputMemWrite measures concurrent quorum writes over the
// in-memory transport; each goroutine owns a key (single-writer protocol).
func BenchmarkThroughputMemWrite(b *testing.B) {
	client := newThroughputMemClient(b)
	ctx := context.Background()
	var goroutineID atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("bench-%d", goroutineID.Add(1))
		for pb.Next() {
			if _, err := client.Write(ctx, key, benchPayload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	reportOpsPerSec(b)
}

// BenchmarkThroughputCells measures aggregate read throughput as the
// keyspace is partitioned across quorum cells (ClientConfig.Cells), holding
// the per-cell construction fixed. The cluster runs under the capacity
// model (SetServerConcurrency + fixed latency): every call spends svcTime
// occupying one of its server's svrSlots service slots, so one cell's
// ceiling is n·slots/(q·svcTime) ops/sec and a c-cell deployment — c×
// servers — must deliver close to c× the aggregate. The 1-vs-4-cell ratio
// recorded in BENCH_throughput.json is the scaling acceptance number; the
// bench-regress gate keeps both points from regressing.
func BenchmarkThroughputCells(b *testing.B) {
	const (
		cellN    = 16                     // replicas per cell
		cellQ    = 4                      // quorum size per cell (ℓ=1: q=√n)
		svcTime  = 500 * time.Microsecond // per-call service time
		svrSlots = 2                      // concurrent calls per server
		numKeys  = 512                    // one key per worker goroutine
	)
	for _, cells := range []int{1, 4} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			sys, err := pqs.New(pqs.Config{N: cellN, Q: cellQ})
			if err != nil {
				b.Fatal(err)
			}
			cluster, err := pqs.NewCluster(pqs.ClusterConfig{Cells: cells, N: cellN, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			client, err := pqs.NewClient(pqs.ClientConfig{
				System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 2,
				Topology: pqs.Topology{Cells: cells},
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// Seed the keyspace before the capacity model switches on, so
			// setup runs at memory speed and the timed region is pure reads
			// against capacity-limited servers.
			keys := make([]string, numKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("cell-bench-%d", i)
				if _, err := client.Write(ctx, keys[i], benchPayload); err != nil {
					b.Fatal(err)
				}
			}
			cluster.SetLatency(svcTime, svcTime)
			cluster.SetServerConcurrency(svrSlots)
			// Enough in-flight readers to saturate every cell's slot pool
			// (cells·n·slots slots total) regardless of ring imbalance.
			procs := runtime.GOMAXPROCS(0)
			b.SetParallelism((numKeys + procs - 1) / procs)
			var goroutineID atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				key := keys[int(goroutineID.Add(1))%numKeys]
				for pb.Next() {
					if _, err := client.Read(ctx, key); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			reportOpsPerSec(b)
		})
	}
}

// newThroughputTCPClient builds a 5-replica universe over real sockets and a
// q=3 client on one multiplexed connection per server.
func newThroughputTCPClient(b *testing.B) *pqs.Client {
	b.Helper()
	const n = 5
	addrs := make(map[quorum.ServerID]string, n)
	for i := 0; i < n; i++ {
		rep := replica.New(quorum.ServerID(i))
		srv, err := transport.ListenTCPCodec("127.0.0.1:0", rep, transport.CodecBinary)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		addrs[quorum.ServerID(i)] = srv.Addr()
	}
	tc := transport.NewTCPClientOpts(addrs, transport.TCPClientOptions{})
	b.Cleanup(func() { tc.Close() })
	sys, err := pqs.New(pqs.Config{N: n, Q: 3})
	if err != nil {
		b.Fatal(err)
	}
	client, err := pqs.NewClient(pqs.ClientConfig{System: sys, Transport: tc, WriterID: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return client
}

// benchTCP runs op concurrently against the TCP fixture, as the sub-benchmark
// "binary" (the row name BENCH_throughput.json has carried since the codec
// was a dimension here).
func benchTCP(b *testing.B, op func(ctx context.Context, client *pqs.Client, key string) error) {
	b.Run(transport.CodecBinary.String(), func(b *testing.B) {
		client := newThroughputTCPClient(b)
		ctx := context.Background()
		if _, err := client.Write(ctx, "bench", benchPayload); err != nil {
			b.Fatal(err)
		}
		var goroutineID atomic.Int64
		// Throughput regime: keep well more requests in flight than
		// cores so the multiplexed connections stay busy (this is what
		// exercises flush coalescing; a lone caller measures latency,
		// not throughput).
		b.SetParallelism(8)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			key := fmt.Sprintf("bench-%d", goroutineID.Add(1))
			for pb.Next() {
				if err := op(ctx, client, key); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		reportOpsPerSec(b)
	})
}

// BenchmarkThroughputTCPRead measures concurrent quorum reads over real
// sockets.
func BenchmarkThroughputTCPRead(b *testing.B) {
	benchTCP(b, func(ctx context.Context, client *pqs.Client, _ string) error {
		_, err := client.Read(ctx, "bench")
		return err
	})
}

// BenchmarkThroughputTCPWrite measures concurrent quorum writes over real
// sockets.
func BenchmarkThroughputTCPWrite(b *testing.B) {
	benchTCP(b, func(ctx context.Context, client *pqs.Client, key string) error {
		_, err := client.Write(ctx, key, benchPayload)
		return err
	})
}

// BenchmarkHighFanIn measures fan-in throughput at the transport layer: one
// server behind the VirtualNet byte-stream plane (wall clock, zero
// simulated latency, so the number is the stack's own cost) with at least
// 1024 concurrent client goroutines spread over a fleet of pooled,
// lifecycle-enabled TCP clients — the dial-storm regime the connection
// lifecycle layer exists for, measured instead of chaos-tested.
func BenchmarkHighFanIn(b *testing.B) {
	const fleetSize = 32
	vn := transport.NewVirtualNet(nil, 77)
	l, err := vn.Listen(0)
	if err != nil {
		b.Fatal(err)
	}
	srv := transport.ServeListener(l, replica.New(0), transport.TCPOptions{})
	b.Cleanup(func() { srv.Close() })
	addrs := map[quorum.ServerID]string{0: l.Addr().String()}

	fleet := make([]*transport.TCPClient, fleetSize)
	for i := range fleet {
		fleet[i] = transport.NewTCPClientOpts(addrs, transport.TCPClientOptions{
			Dial: vn.Dialer(quorum.ServerID(1000 + i)),
			Lifecycle: transport.LifecycleConfig{
				PoolSize:         4,
				DialBackoffBase:  time.Millisecond,
				BreakerThreshold: 8,
			},
		})
		cl := fleet[i]
		b.Cleanup(func() { cl.Close() })
	}

	// RunParallel spawns GOMAXPROCS×parallelism goroutines; push that to at
	// least 1024 concurrent callers against the single server.
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((1024 + procs - 1) / procs)
	var goroutineID atomic.Int64
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := fleet[int(goroutineID.Add(1))%fleetSize]
		for pb.Next() {
			if _, err := client.Call(ctx, 0, wire.PingRequest{}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	reportOpsPerSec(b)
}

// BenchmarkThroughputWAN is the compression crossover measurement: writes
// carrying a compressible ~4 KiB value through a VirtualNet whose links are
// byte-limited to 256 KB/s per direction (a WAN-ish access link), raw
// binary codec vs CodecBinaryFlate in the same run. On an unlimited link
// deflate's CPU cost loses to the null transform; at 256 KB/s the link is
// the bottleneck and the raw codec tops out near rate/frameSize ops/sec,
// while the compressed codec ships many more frames through the same pipe.
// The acceptance floor for this fixture is flate >= 1.5x raw ops/sec.
func BenchmarkThroughputWAN(b *testing.B) {
	// Redundant-but-structured payload, the shape compression is for
	// (JSON-ish session state, config blobs); deflates to a few percent.
	value := bytes.Repeat([]byte(`{"session":"0123456789abcdef","state":"active"}`), 88)
	for _, codec := range []transport.Codec{transport.CodecBinary, transport.CodecBinaryFlate} {
		b.Run(codec.String(), func(b *testing.B) {
			vn := transport.NewVirtualNet(nil, 99)
			vn.SetByteRate(256 << 10)
			l, err := vn.Listen(0)
			if err != nil {
				b.Fatal(err)
			}
			srv := transport.ServeListener(l, replica.New(0), transport.TCPOptions{Codec: codec})
			b.Cleanup(func() { srv.Close() })
			client := transport.NewTCPClientOpts(map[quorum.ServerID]string{0: l.Addr().String()}, transport.TCPClientOptions{
				Codec: codec,
				Dial:  vn.Dialer(quorum.ServerID(1000)),
			})
			b.Cleanup(func() { client.Close() })

			ctx := context.Background()
			stamp := ts.Stamp{Counter: 1, Writer: 1}
			// Modest parallelism keeps the single multiplexed connection's
			// send queue full (throughput regime) without stacking seconds
			// of serialization delay onto every call.
			var goroutineID atomic.Int64
			b.SetBytes(int64(len(value)))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := goroutineID.Add(1)
				i := 0
				for pb.Next() {
					i++
					req := wire.WriteRequest{
						Key:   fmt.Sprintf("wan-%d-%d", id, i),
						Value: value,
						Stamp: stamp,
					}
					if _, err := client.Call(ctx, 0, req); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			reportOpsPerSec(b)
		})
	}
}
