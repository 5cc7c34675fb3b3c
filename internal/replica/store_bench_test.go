package replica

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pqs/internal/ts"
	"pqs/internal/wire"
)

// benchStores builds n stores holding names, all sharing the key strings and
// one value, so that what the stores allocate is their tables and their
// reply boxes and nothing else. Every Apply carries its own stamp (its own
// writer, at counter 1): distinct keys never share a write in real use, so
// no slot here may share another's box (see boxed).
func benchStores(n int, names []string) []*Store {
	val := make([]byte, 36)
	stores := make([]*Store, n)
	w := uint32(0)
	for i := range stores {
		stores[i] = NewStore()
		for _, k := range names {
			w++
			stores[i].Apply(k, Entry{Value: val, Stamp: ts.Stamp{Counter: 1, Writer: w}})
		}
	}
	return stores
}

// The memory plane's shape: a process hosting 100 replicas of 1 024 keys,
// every call at a different replica than the last, so an access finds the
// store's own line in cache (100 of them are 6.4 KB) and the key's slot and
// box out of it (16 MB of tables).
const (
	coldStores = 100
	coldKeys   = 1024
)

// keyNames returns n distinct key names.
func keyNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("key-%06d", i)
	}
	return names
}

// coldFixture returns the stores, their key names and a fixed random
// sequence of (store<<16 | key) pairs to visit.
func coldFixture() ([]*Store, []string, []uint32) {
	names := keyNames(coldKeys)
	rng := rand.New(rand.NewSource(1))
	pairs := make([]uint32, 1<<16)
	for i := range pairs {
		pairs[i] = uint32(rng.Intn(coldStores))<<16 | uint32(rng.Intn(coldKeys))
	}
	return benchStores(coldStores, names), names, pairs
}

// BenchmarkStoreGetCold prices the read RPC's store access as mem-fanout
// pays for it: a miss on the key's slot and one on its box, the store's lock
// taken uncontended. One iteration is a sweep of 4 096 pairs — testing.PB's
// per-iteration counter is then a four-thousandth of what is measured (two
// PBs can share a cache line; see BenchmarkMemNetworkStartParallel). Read
// ns/get; run with -cpu 1,2.
func BenchmarkStoreGetCold(b *testing.B) {
	const sweep = 4096
	stores, names, pairs := coldFixture()
	var entry atomic.Uint32 // each goroutine enters the sequence elsewhere
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		at := int(entry.Add(7919))
		for pb.Next() {
			for i := 0; i < sweep; i++ {
				p := pairs[(at+i)%len(pairs)]
				if _, ok := stores[p>>16].Get(names[p&0xFFFF]); !ok {
					b.Errorf("store %d lost %s", p>>16, names[p&0xFFFF])
					return
				}
			}
			at += sweep
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweep), "ns/get")
}

// BenchmarkStoreGetHot prices what one lock per store costs where it costs
// most: every goroutine reads one store of 1 024 keys, all in cache, so
// under -cpu 2 the callers take turns on its lock and pass its line between
// cores. Read ns/op; run with -cpu 1,2.
func BenchmarkStoreGetHot(b *testing.B) {
	names := keyNames(coldKeys)
	s := benchStores(1, names)[0]
	var entry atomic.Uint32 // each goroutine starts at its own key
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(entry.Add(7919))
		for pb.Next() {
			if _, ok := s.Get(names[i%coldKeys]); !ok {
				b.Errorf("store lost %s", names[i%coldKeys])
				return
			}
			i++
		}
	})
}

// BenchmarkReplicaReadCold prices what a read RPC costs at its replica, as
// mem-fanout's callers pay for it: BenchmarkStoreGetCold's shape and sweep,
// each visit an honest TryHandle of a pre-boxed ReadRequest, so that what is
// measured is the handler and the store. Read ns/read (0 allocs/op: the
// reply is the box the store made at adoption); run with -cpu 1,2.
func BenchmarkReplicaReadCold(b *testing.B) {
	const sweep = 4096
	stores, names, pairs := coldFixture()
	replicas := make([]*Replica, len(stores))
	for i, s := range stores {
		replicas[i] = New(0)
		replicas[i].store = s
	}
	reqs := make([]any, len(names))
	for i, k := range names {
		reqs[i] = wire.ReadRequest{Key: k}
	}
	ctx := context.Background()
	var entry atomic.Uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		at := int(entry.Add(7919))
		for pb.Next() {
			for i := 0; i < sweep; i++ {
				p := pairs[(at+i)%len(pairs)]
				resp, ok, err := replicas[p>>16].TryHandle(ctx, reqs[p&0xFFFF])
				if !ok || err != nil || !resp.(wire.ReadReply).Found {
					b.Errorf("replica %d: %s: %v, %v, %v", p>>16, names[p&0xFFFF], resp, ok, err)
					return
				}
			}
			at += sweep
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweep), "ns/read")
}

// BenchmarkStoreApplyAdopt prices the write RPC's store access on the same
// shape: every Apply carries a higher stamp than the last, so every one is
// adopted (find, the reply box, sequence draw). One goroutine: adoptions
// draw from one counter per store, and mem-fanout is 10 % writes.
func BenchmarkStoreApplyAdopt(b *testing.B) {
	stores, names, pairs := coldFixture()
	val := make([]byte, 36)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if !stores[p>>16].Apply(names[p&0xFFFF], Entry{Value: val, Stamp: ts.Stamp{Counter: uint64(i) + 2, Writer: 1}}) {
			b.Fatalf("apply %d not adopted", i)
		}
	}
}

// BenchmarkStoreGrowPause prices the longest wait growth puts behind one
// store's lock, which every caller of that replica then waits out: it fills
// one store with 2^14, 2^17 and 2^20 distinct keys and reports the worst
// single Apply of a fill, the median of three fills with the collector off
// (worst-ms: the store's own work) and of three with it on (worst-gc-ms:
// collector assists land on whichever Apply allocates when one is due).
// Every key is written with one entry, so a fill allocates tables and
// nothing else. Run with -benchtime 1x; the 2^20 fills hold about 110 MB.
func BenchmarkStoreGrowPause(b *testing.B) {
	for _, lg := range []int{14, 17, 20} {
		b.Run(fmt.Sprintf("keys=%d", 1<<lg), func(b *testing.B) {
			names := keyNames(1 << lg)
			e := Entry{Value: make([]byte, 36), Stamp: ts.Stamp{Counter: 1, Writer: 1}}
			fill := func() float64 {
				runtime.GC()
				s, worst := NewStore(), time.Duration(0)
				for _, k := range names {
					t0 := time.Now()
					s.Apply(k, e)
					worst = max(worst, time.Since(t0))
				}
				return float64(worst) / float64(time.Millisecond)
			}
			gc := debug.SetGCPercent(-1)
			defer debug.SetGCPercent(gc)
			var off, on []float64
			for i := 0; i < b.N; i++ {
				for range 3 {
					debug.SetGCPercent(-1)
					off = append(off, fill())
					debug.SetGCPercent(gc)
					on = append(on, fill())
				}
			}
			median := func(v []float64) float64 { slices.Sort(v); return v[len(v)/2] }
			b.ReportMetric(median(off), "worst-ms")
			b.ReportMetric(median(on), "worst-gc-ms")
		})
	}
}

// TestStoreFootprint gates what a store costs to keep: 1 000 stores of 4
// keys and 100 of 64, 400 and 1 600 keys, heap bytes per key over and above the keys and values
// themselves. The three larger rows are held to what this same test
// measured at e990225, where a store was 64 shards, each a Go map from key
// to record: 654, 185 and 163. The 4-key row is sim-tcpv's shape (144
// stores of a key or two) and is held to what it measured at 9a3ac40, where
// a store was one flat table: 204, so that small stores stay small. A store
// of up to 112 keys is one table of 48-byte slots (4 keys take 8 slots, 64
// take 128) and a larger one a directory of 128-slot tables, each entry
// boxed as its read reply; the rows measure 204, 184, 151 and 152 (one flat
// table to any size: 204, 184, 148 and 142). Each key here is its own write
// and so has its own 80-byte box, as distinct keys do in use: with one
// write stamped on every key, all the slots would share one box and measure
// about 80 bytes less, which is a fixture's saving, not the store's. The
// store is allowed 5 % over: the runs differ by about 1 % with the
// process's hash seed. The baseline is read after two collections, so that
// what an earlier test left in a sync.Pool, which only the second frees, is
// not counted against the first row. Population-scale runs (sim-mem: 1 000
// stores, peak RSS) hold 225 to 448 keys a store, which one flat table held
// in 512 slots. Key names are random: e990225 chose the shard by unkeyed
// FNV-1a, which deals sequential names out almost evenly and would flatter
// it.
func TestStoreFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~30 MB")
	}
	for _, c := range []struct {
		keys, stores int
		gate         float64 // heap bytes per key, measured at commit at
		at           string
	}{{4, 1000, 204, "9a3ac40"}, {64, 100, 654, "e990225"}, {400, 100, 185, "e990225"}, {1600, 100, 163, "e990225"}} {
		// Every store its own names: the hash is seeded per process, so a
		// hundred stores of one key set would be one sample, not a hundred.
		rng := rand.New(rand.NewSource(int64(c.keys)))
		names := make([]string, c.stores*c.keys)
		for i := range names {
			names[i] = fmt.Sprintf("%016x", rng.Uint64())
		}
		stores := make([]*Store, c.stores)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range stores {
			stores[i] = benchStores(1, names[i*c.keys:(i+1)*c.keys])[0]
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perKey := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(names))
		t.Logf("%4d keys/store: %.0f heap bytes per key (%s: %.0f)", c.keys, perKey, c.at, c.gate)
		if perKey > 1.05*c.gate {
			t.Errorf("%d keys/store: %.0f heap bytes per key, more than 5 %% above %.0f (%s)", c.keys, perKey, c.gate, c.at)
		}
		runtime.KeepAlive(stores)
		runtime.KeepAlive(names)
	}
}
