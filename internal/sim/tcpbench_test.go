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

// BenchmarkVirtualTCPRead prices one read through the whole TCP data plane
// over a VirtualNet under a SimClock, in the bench workload sim-tcpv's
// shape: n = 144, q = 24, zero latency, one operation at a time inside Run,
// every connection up before the clock starts. Besides ns/op and allocs/op
// it reports goroutines/op, the goroutines started per read, counted over
// countReads further reads on one processor (see nextGoid): with every call
// started on the caller and every request answered, and every reply
// delivered, where its chunk lands, nothing is left that needs one.
func BenchmarkVirtualTCPRead(b *testing.B) {
	const n, q, countReads = 144, 24, 500
	sc := vtime.NewSimClock()
	var failed error
	sc.Run(func() {
		tc, err := NewTCPCluster(NewCluster(config.Cluster{N: n, Seed: 1, Clock: sc}), sc, 1, TCPClusterOptions{})
		if err != nil {
			failed = err
			return
		}
		defer tc.Close()
		sys, err := quorum.NewUniform(n, q)
		if err != nil {
			failed = err
			return
		}
		cl, err := register.NewClient(register.Options{
			System: sys, Mode: register.Benign, Transport: tc.Client, Time: sc,
			Rand: rand.New(rand.NewSource(1)), Clock: ts.NewClock(1),
		})
		if err != nil {
			failed = err
			return
		}
		ctx := context.Background()
		for id := quorum.ServerID(0); id < n; id++ {
			if _, err := tc.Client.Call(ctx, id, wire.ReadRequest{Key: "k"}); err != nil {
				failed = err
				return
			}
		}
		if _, err := cl.Write(ctx, "k", []byte("v")); err != nil {
			failed = err
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Read(ctx, "k"); err != nil {
				failed = err
				return
			}
		}
		b.StopTimer()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		first := nextGoid()
		for i := 0; i < countReads; i++ {
			if _, err := cl.Read(ctx, "k"); err != nil {
				failed = err
				return
			}
		}
		b.ReportMetric(float64(nextGoid()-first-1)/countReads, "goroutines/op")
	})
	if failed != nil {
		b.Fatal(failed)
	}
}
