package main

import (
	"math/rand"
	"time"

	"pqs"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/sv"
	"pqs/internal/ts"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// Isolated probes: public functions of single layers timed in a tight loop
// at the workload's own sizes, so a layer metric can be read without the
// rest of the stack around it.

// probeNs times fn in five batches of about 20ms each (1ms when small, for
// the smoke test) and returns the median nanoseconds per call.
func probeNs(small bool, fn func()) float64 {
	budget := 20 * time.Millisecond
	if small {
		budget = time.Millisecond
	}
	batches := make([]float64, 5)
	for b := range batches {
		calls := 0
		start := time.Now()
		for time.Since(start) < budget {
			for i := 0; i < 16; i++ {
				fn()
			}
			calls += 16
		}
		batches[b] = float64(time.Since(start)) / float64(calls)
	}
	return median(batches)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// probeQuorum times one access-set sample: into a reused buffer (the data
// plane's path) and through the allocating Pick.
func probeQuorum(sys quorum.System, seed int64, small bool) (hot, cold float64) {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]quorum.ServerID, 0, sys.QuorumSize())
	if ip, ok := sys.(quorum.InplacePicker); ok {
		hot = probeNs(small, func() { buf = ip.PickInto(rng, buf) })
	}
	cold = probeNs(small, func() { sink = sys.Pick(rng) })
	return hot, cold
}

// probeWire times encoding a write request and decoding a read reply that
// carry a value of the workload's size (plus a signature when signed).
func probeWire(valueSize int, signed bool, small bool) (encode, decode float64) {
	val := make([]byte, valueSize)
	var sig []byte
	if signed {
		sig = make([]byte, 64)
	}
	stamp := ts.Stamp{Counter: 12345, Writer: writerID}
	req := wire.Envelope{ID: 77, Payload: wire.WriteRequest{Key: "k00000", Value: val, Stamp: stamp, Sig: sig}}
	buf := make([]byte, 0, valueSize+128)
	encode = probeNs(small, func() { buf, _ = wire.AppendEnvelope(buf[:0], req) })
	reply, err := wire.AppendReplyEnvelope(nil, wire.ReplyEnvelope{ID: 77, Payload: wire.ReadReply{Found: true, Value: val, Stamp: stamp, Sig: sig}})
	if err != nil {
		return encode, 0
	}
	decode = probeNs(small, func() { sink, _ = wire.DecodeReplyEnvelope(reply) })
	return encode, decode
}

// probeStore times Apply (every call adopts: stamps rise) and Get on a
// store holding the workload's key count at its value size.
func probeStore(keys, valueSize int, small bool) (apply, get float64) {
	st := replica.NewStore()
	names := make([]string, keys)
	val := make([]byte, valueSize)
	for k := range names {
		names[k] = keyName(k)
		st.Apply(names[k], replica.Entry{Value: val, Stamp: ts.Stamp{Counter: 1, Writer: writerID}})
	}
	i, counter := 0, uint64(1)
	apply = probeNs(small, func() {
		counter++
		st.Apply(names[i%keys], replica.Entry{Value: val, Stamp: ts.Stamp{Counter: counter, Writer: writerID}})
		i++
	})
	get = probeNs(small, func() { sink, _ = st.Get(names[i%keys]); i++ })
	return apply, get
}

// probeSV times one ed25519 sign and one registry verify over a value of
// the workload's size, in microseconds.
func probeSV(valueSize int, seed int64, small bool) (signUs, verifyUs float64) {
	key, err := pqs.GenerateWriterKey(writerID, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, 0
	}
	reg := sv.NewRegistry()
	reg.Add(writerID, key.Public)
	val := make([]byte, valueSize)
	stamp := ts.Stamp{Counter: 9, Writer: writerID}
	var sig []byte
	signUs = probeNs(small, func() { sig = sv.Sign(key.Private, "k00000", val, stamp) }) / 1e3
	verifyUs = probeNs(small, func() { sink = reg.VerifyEntry("k00000", val, stamp, sig) }) / 1e3
	return signUs, verifyUs
}

// probeTimer times the SimClock scheduler: sleepers goroutines each sleep
// sleeps times; the result is wall nanoseconds per timer fire.
func probeTimer(small bool) float64 {
	sleepers, sleeps := 64, 400
	if small {
		sleeps = 10
	}
	sc := vtime.NewSimClock()
	start := time.Now()
	sc.Run(func() {
		wg := vtime.NewWaitGroup(sc)
		wg.Add(sleepers)
		for g := 0; g < sleepers; g++ {
			gap := time.Duration(g+1) * time.Microsecond
			sc.Go(func() {
				defer wg.Done()
				for k := 0; k < sleeps; k++ {
					sc.Sleep(gap)
				}
			})
		}
		wg.Wait()
	})
	return float64(time.Since(start)) / float64(sleepers*sleeps)
}
