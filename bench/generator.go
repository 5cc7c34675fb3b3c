package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pqs"
	"pqs/internal/combin"
)

// oracleAlpha is the confidence of the stale-read gate: the run fails when
// P(Binomial(reads, eps) >= stale) drops below it.
const oracleAlpha = 1e-6

// Values are self-describing: key index, version, filler, CRC-32C of
// everything before it.
const valueTrailer = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// oracle judges every value the client returns. completed[k] is the last
// version of key k whose write has returned; a read that noted it before
// starting and then got an older version (or nothing) is stale. Keys are
// partitioned among the workers for writing, so each key has one
// sequential writer, as the single-writer protocol requires.
type oracle struct {
	names     []string
	completed []atomic.Uint64
	filler    []byte
	forged    []byte
}

func newOracle(keys, valueSize int, seed int64) *oracle {
	o := &oracle{
		names:     make([]string, keys),
		completed: make([]atomic.Uint64, keys),
		filler:    make([]byte, valueSize),
		forged:    make([]byte, valueSize),
	}
	for k := range o.names {
		o.names[k] = keyName(k)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6F7261636C65))
	rng.Read(o.filler)
	// The forged value is well-formed (right key space, huge version, good
	// checksum): only the signature check can tell it from a real write.
	o.encode(o.forged, 0, 1<<62)
	return o
}

func keyName(k int) string { return fmt.Sprintf("k%05d", k) }

// encode writes version v of key k into buf (len = the value size).
func (o *oracle) encode(buf []byte, k int, v uint64) {
	copy(buf, o.filler)
	binary.BigEndian.PutUint32(buf[0:], uint32(k))
	binary.BigEndian.PutUint64(buf[4:], v)
	sum := crc32.Checksum(buf[:len(buf)-valueTrailer], castagnoli)
	binary.BigEndian.PutUint32(buf[len(buf)-valueTrailer:], sum)
}

// decode returns the version carried by a value read for key k, or an
// error when the value is not one this run wrote for that key.
func (o *oracle) decode(val []byte, k int) (uint64, error) {
	if len(val) != len(o.filler) {
		return 0, fmt.Errorf("key %s: value of %d bytes, want %d", o.names[k], len(val), len(o.filler))
	}
	if bytes.Equal(val, o.forged) {
		return 0, fmt.Errorf("key %s: read returned the forged value", o.names[k])
	}
	body, sum := val[:len(val)-valueTrailer], binary.BigEndian.Uint32(val[len(val)-valueTrailer:])
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, fmt.Errorf("key %s: checksum mismatch", o.names[k])
	}
	if got := int(binary.BigEndian.Uint32(val[0:])); got != k {
		return 0, fmt.Errorf("key %s: value belongs to key %d", o.names[k], got)
	}
	return binary.BigEndian.Uint64(val[4:]), nil
}

// checkStale applies the exact binomial gate to the stale-read count.
func checkStale(reads, stale int, eps float64) error {
	if stale == 0 || reads == 0 {
		return nil
	}
	if p := combin.BinomialTailGE(reads, eps, stale); p < oracleAlpha {
		return fmt.Errorf("%d stale of %d reads exceeds eps=%.3g (p=%.3g < alpha=%g)", stale, reads, eps, p, oracleAlpha)
	}
	return nil
}

// op is one pre-generated operation of a worker's stream.
type op struct {
	key   int32
	write bool
}

// streamLen is the length of each worker's op stream; the worker cycles it.
const streamLen = 1 << 16

// worker is one closed-loop caller: it issues its next operation only when
// the previous one has returned.
type worker struct {
	stream []op
	next   int      // cursor into stream, kept across windows
	ver    []uint64 // next version to write, per owned key
	buf    []byte
	trace  *workerTrace // nil on untraced runs

	readNs, writeNs []uint32
	attempted       int
	failed          int
	reads, stale    int
	hard            error // first wrong value seen
}

// generator drives W workers against one cluster.
type generator struct {
	c       *cluster
	workers []*worker
}

func newGenerator(w *workload, c *cluster, nworkers int, seed int64, tr *tracer) *generator {
	g := &generator{c: c}
	for id := 0; id < nworkers; id++ {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(id)))
		wk := &worker{stream: make([]op, streamLen), ver: make([]uint64, w.keys), buf: make([]byte, w.valueSize)}
		owned := (w.keys - id + nworkers - 1) / nworkers // keys k with k % nworkers == id
		for i := range wk.stream {
			if rng.Intn(100) < w.readPct {
				wk.stream[i] = op{key: int32(rng.Intn(w.keys))}
			} else {
				wk.stream[i] = op{key: int32(rng.Intn(owned)*nworkers + id), write: true}
			}
		}
		for k := range wk.ver {
			wk.ver[k] = 2 // set-up wrote version 1
		}
		if tr != nil {
			wk.trace = tr.workers[id]
		}
		g.workers = append(g.workers, wk)
	}
	return g
}

// slice is one measured interval: every worker runs its closed loop for the
// slice's length, then all of them stop. A window is a sequence of slices;
// the end-to-end numbers are medians over them, so a disturbed second on a
// shared box moves one slice, not the result.
type slice struct {
	seconds float64 // wall time of the slice
	cpu     float64 // process user+system CPU seconds spent in it
	ops     int
	readUs  []float64 // sorted read latencies
	writeUs []float64 // sorted write latencies
}

// run drives every worker for d and returns what happened. With record unset
// it is warm-up and returns nothing. spanOps > 0 also records spans (the
// workers must have been given a tracer) and ends the slice once that many
// operations have been issued, so the span buffers cannot overflow.
func (g *generator) run(d time.Duration, record bool, spanOps int) slice {
	perWorker := spanOps / len(g.workers)
	var wg sync.WaitGroup
	cpu0, start := cpuSeconds(), time.Now()
	for _, wk := range g.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.loop(g.c, start, d, record, perWorker)
		}(wk)
	}
	wg.Wait()
	sl := slice{seconds: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0}
	if !record {
		return slice{}
	}
	for _, wk := range g.workers {
		for _, ns := range wk.readNs {
			sl.readUs = append(sl.readUs, float64(ns)/1e3)
		}
		for _, ns := range wk.writeNs {
			sl.writeUs = append(sl.writeUs, float64(ns)/1e3)
		}
		wk.readNs, wk.writeNs = wk.readNs[:0], wk.writeNs[:0]
	}
	sort.Float64s(sl.readUs)
	sort.Float64s(sl.writeUs)
	sl.ops = len(sl.readUs) + len(sl.writeUs)
	return sl
}

func (wk *worker) loop(c *cluster, start time.Time, d time.Duration, record bool, spanOps int) {
	ctx := context.Background()
	if wk.trace != nil {
		ctx = wk.trace.ctx
	}
	o := c.oracle
	for issued := 0; spanOps == 0 || issued < spanOps; issued++ {
		cur := wk.stream[wk.next%streamLen]
		k := int(cur.key)
		var floor uint64
		if cur.write {
			o.encode(wk.buf, k, wk.ver[k])
		} else {
			floor = o.completed[k].Load()
		}
		t0 := time.Now()
		if t0.Sub(start) >= d {
			return
		}
		wk.next++
		var rec *opRec
		if spanOps > 0 {
			rec = wk.trace.begin(cur.write, t0)
		}
		var rr pqs.ReadResult
		var err error
		if cur.write {
			_, err = c.client.Write(ctx, o.names[k], wk.buf)
		} else {
			rr, err = c.client.Read(ctx, o.names[k])
		}
		t1 := time.Now()
		if rec != nil {
			wk.trace.end(rec, t1)
		}

		// Everything below is the benchmark's own bookkeeping, outside the
		// timed interval.
		if cur.write {
			if err == nil {
				o.completed[k].Store(wk.ver[k])
			}
			wk.ver[k]++
		}
		if !record {
			continue
		}
		wk.attempted++
		switch {
		case err != nil:
			wk.failed++
		case !cur.write:
			wk.reads++
			v, derr := uint64(0), error(nil)
			if rr.Found {
				v, derr = o.decode(rr.Value, k)
			}
			if derr != nil && wk.hard == nil {
				wk.hard = derr
			}
			if v < floor {
				wk.stale++
			}
		}
		ns := uint32(t1.Sub(t0))
		if cur.write {
			wk.writeNs = append(wk.writeNs, ns)
		} else {
			wk.readNs = append(wk.readNs, ns)
		}
	}
}

// totals folds the workers' counters; err is the first hard failure.
func (g *generator) totals() (attempted, failed, reads, stale int, err error) {
	for _, wk := range g.workers {
		attempted += wk.attempted
		failed += wk.failed
		reads += wk.reads
		stale += wk.stale
		if err == nil {
			err = wk.hard
		}
	}
	return
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// stealSeconds is the CPU time the hypervisor has taken from this box so
// far (the steal column of /proc/stat, in 10ms ticks); 0 where the kernel
// does not report it.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile returns the q-quantile of sorted (nearest rank); 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle value; 0 when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
