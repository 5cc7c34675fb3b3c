package main

import (
	"crypto/ed25519"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The sandbox is a shared 2-core VM: with nothing else running in it, the
// same code runs 5-30% slower for seconds or minutes at a time (neighbours
// on the host), and a 10s window cannot average that out. So between slices
// every worker stops and the benchmark runs a short calibration burst of
// fixed work that resembles what the workload spends its time on. How long
// the burst takes, relative to a fixed reference, says how slow the host is
// at that moment for that kind of work; the time-based end-to-end metrics
// of the neighbouring slice are scaled by it, i.e. reported at the
// reference host speed. The burst never touches pqs code, so a change to
// the product moves the metrics one to one; a slow minute on the host does
// not. README.md has the measured effect on the run-to-run spread.
//
// The host's noise has more than one dimension (memory system, core speed,
// cross-CPU wake-ups), and different workloads feel different ones, so each
// workload names the kernels that match it (workloads.go); its index is the
// geometric mean of their slowdowns.

// kernel is one kind of calibration work.
type kernel int

const (
	// kernelGoWork is generic Go server work: map inserts and lookups, a
	// sort, small allocations, a pointer chase. One goroutine per worker.
	kernelGoWork kernel = iota
	// kernelLoopback is 64-byte round trips over a loopback TCP connection
	// to an echo goroutine: the kernel's socket path and the wake-ups around
	// it, about half of a tcp-plane operation's CPU.
	kernelLoopback
	// kernelVerify is crypto/ed25519 verification of a fixed message: pure
	// arithmetic, what a dissemination read spends ~90% of its CPU on. One
	// goroutine per worker.
	kernelVerify
)

// What one chunk of each kernel took on this sandbox at the baseline
// commit, in seconds (medians over many runs). They only set the scale.
var kernelRef = [...]float64{
	kernelGoWork:   350e-6,
	kernelLoopback: 190e-6,
	kernelVerify:   420e-6,
}

const (
	calibChunks      = 12 // chunks per burst; the burst's value is their median
	loopbackPerChunk = 20 // round trips per loopback chunk
	verifyPerChunk   = 8  // verifications per verify chunk
)

// hostProbe measures how slow the host currently is for one workload.
type hostProbe struct {
	kernels []kernel
	workers int

	conn net.Conn // loopback connection to the echo goroutine
	ln   net.Listener
	done chan struct{}

	pub ed25519.PublicKey
	msg []byte
	sig []byte
}

// newHostProbe prepares a probe running the given kernels; close releases it.
func newHostProbe(kernels []kernel, workers int) (*hostProbe, error) {
	hp := &hostProbe{kernels: kernels, workers: workers}
	for _, k := range kernels {
		switch k {
		case kernelLoopback:
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			hp.ln, hp.done = ln, make(chan struct{})
			go func() {
				defer close(hp.done)
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				io.Copy(c, c) //nolint:errcheck // ends when the probe closes its side
			}()
			if hp.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
				hp.close()
				return nil, err
			}
		case kernelVerify:
			pub, priv, err := ed25519.GenerateKey(rand.New(rand.NewSource(1)))
			if err != nil {
				return nil, err
			}
			hp.pub, hp.msg = pub, make([]byte, 64)
			hp.sig = ed25519.Sign(priv, hp.msg)
		}
	}
	return hp, nil
}

func (hp *hostProbe) close() {
	if hp.ln == nil {
		return
	}
	if hp.conn != nil {
		hp.conn.Close()
	}
	hp.ln.Close()
	<-hp.done
}

// slowness runs one calibration burst and returns how many times slower
// than the reference the host is right now (1 = reference speed): the
// geometric mean over the probe's kernels.
func (hp *hostProbe) slowness() float64 {
	logSum := 0.0
	for _, k := range hp.kernels {
		var took float64
		switch k {
		case kernelGoWork:
			took = hp.parallel(goWork)
		case kernelVerify:
			took = hp.parallel(func(uint64) uint64 {
				ok := uint64(0)
				for i := 0; i < verifyPerChunk; i++ {
					if ed25519.Verify(hp.pub, hp.msg, hp.sig) {
						ok++
					}
				}
				return ok
			})
		case kernelLoopback:
			took = hp.loopback()
		}
		logSum += math.Log(took / kernelRef[k])
	}
	return math.Exp(logSum / float64(len(hp.kernels)))
}

// parallel runs calibChunks chunks on one goroutine per worker and returns
// the median chunk time, averaged over the goroutines.
func (hp *hostProbe) parallel(chunk func(seed uint64) uint64) float64 {
	var wg sync.WaitGroup
	took := make([]float64, hp.workers)
	sums := make([]uint64, hp.workers)
	for i := range took {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chunks := make([]float64, calibChunks)
			for c := range chunks {
				start := time.Now()
				sums[i] += chunk(uint64(i*calibChunks + c))
				chunks[c] = time.Since(start).Seconds()
			}
			took[i] = median(chunks)
		}(i)
	}
	wg.Wait()
	mean := 0.0
	for i, t := range took {
		mean += t / float64(len(took))
		calibSink += sums[i]
	}
	return mean
}

// loopback returns the median time of a chunk of round trips. A broken
// connection reads as reference speed rather than failing the run.
func (hp *hostProbe) loopback() float64 {
	msg := make([]byte, 64)
	chunks := make([]float64, calibChunks)
	for c := range chunks {
		start := time.Now()
		for i := 0; i < loopbackPerChunk; i++ {
			if _, err := hp.conn.Write(msg); err != nil {
				return kernelRef[kernelLoopback]
			}
			if _, err := io.ReadFull(hp.conn, msg); err != nil {
				return kernelRef[kernelLoopback]
			}
		}
		chunks[c] = time.Since(start).Seconds()
	}
	return median(chunks)
}

// calibSink keeps the kernels' results alive so the compiler cannot drop
// the calls.
var calibSink uint64

type calibNode struct {
	next *calibNode
	pad  [6]uint64
}

// goWork is one chunk of kernelGoWork.
func goWork(seed uint64) uint64 {
	x := seed*2654435761 + 1
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	var sum uint64
	for round := 0; round < 4; round++ {
		m := make(map[uint64]uint64, 512)
		for i := 0; i < 1024; i++ {
			v := next()
			m[v>>54] += v
		}
		for i := 0; i < 2048; i++ {
			sum += m[next()>>54]
		}
		xs := make([]int, 512)
		for i := range xs {
			xs[i] = int(next() >> 40)
		}
		sort.Ints(xs)
		var head *calibNode
		for i := 0; i < 256; i++ {
			head = &calibNode{next: head}
			head.pad[0] = uint64(xs[i])
		}
		for p := head; p != nil; p = p.next {
			sum += p.pad[0]
		}
	}
	return sum
}
