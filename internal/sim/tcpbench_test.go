package sim

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/ts"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// nextGoid is the id the runtime gives the next goroutine. On one
// processor ids are handed out in creation order (each processor caches its
// own batch of 16), so there the ids of two goroutines made apart count the
// goroutines made between them.
func nextGoid() uint64 {
	ch := make(chan uint64)
	go func() {
		var buf [64]byte
		id, _ := strconv.ParseUint(string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1]), 10, 64) // "goroutine <id> [running]:"
		ch <- id
	}()
	return <-ch
}

// virtualTCPReads stands sim-tcpv's shape up — n = 144, q = 24, zero
// latency, the whole TCP data plane over a VirtualNet under a SimClock, every
// connection up and the key written before the clock starts — and runs body
// inside the clock's Run with a read of the key, one operation at a time.
func virtualTCPReads(tb testing.TB, body func(read func() error)) {
	const n, q = 144, 24
	sc := vtime.NewSimClock()
	var failed error
	sc.Run(func() {
		w, err := NewWorld(config.Cluster{N: n, Seed: 1, Clock: sc}, TransportTCPVirtual, 1, TCPOptions{})
		if err != nil {
			failed = err
			return
		}
		defer w.Close()
		sys, err := quorum.NewUniform(n, q)
		if err != nil {
			failed = err
			return
		}
		cl, err := register.NewClient(register.Options{
			System: sys, Mode: register.Benign, Transport: w.Caller(), Time: sc,
			Rand: rand.New(rand.NewSource(1)), Clock: ts.NewClock(1),
		})
		if err != nil {
			failed = err
			return
		}
		ctx := context.Background()
		for id := quorum.ServerID(0); id < n; id++ {
			if _, err := w.Caller().Call(ctx, id, wire.ReadRequest{Key: "k"}); err != nil {
				failed = err
				return
			}
		}
		if _, err := cl.Write(ctx, "k", []byte("v")); err != nil {
			failed = err
			return
		}
		body(func() error {
			_, err := cl.Read(ctx, "k")
			return err
		})
	})
	if failed != nil {
		tb.Fatal(failed)
	}
}

// BenchmarkVirtualTCPRead prices one read through the whole TCP data plane
// in virtualTCPReads' shape. Besides ns/op and allocs/op it reports
// goroutines/op, the goroutines started per read, counted over countReads
// further reads on one processor (see nextGoid): with every call started on
// the caller and every request answered, and every reply delivered, where
// its chunk lands, nothing is left that needs one.
func BenchmarkVirtualTCPRead(b *testing.B) {
	const countReads = 500
	virtualTCPReads(b, func(read func() error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := read(); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		first := nextGoid()
		for i := 0; i < countReads; i++ {
			if err := read(); err != nil {
				b.Error(err)
				return
			}
		}
		b.ReportMetric(float64(nextGoid()-first-1)/countReads, "goroutines/op")
	})
}

// TestVirtualTCPReadAllocs: a read in sim-tcpv's shape (q = 24) allocates
// at most 127 objects, about 5.3 per RPC. No timer is made per chunk or per call: a
// connection's chunks land on one alarm per end, and its call deadlines
// share one alarm. A call reports to the operation's reply queue, so it
// makes no completion closure either, and the queue's channel is reused
// with the operation's scratch. (Allocation counts differ under -race; the
// race targets leave it out.)
func TestVirtualTCPReadAllocs(t *testing.T) {
	const q, perRead = 24, 127
	virtualTCPReads(t, func(read func() error) {
		var failed error
		allocs := testing.AllocsPerRun(200, func() {
			if err := read(); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Error(failed)
			return
		}
		if allocs > perRead {
			t.Errorf("a read allocates %.1f objects, %.2f per RPC; want at most %d", allocs, allocs/q, perRead)
		}
	})
}
