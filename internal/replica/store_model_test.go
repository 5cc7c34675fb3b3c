package replica

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"pqs/internal/ts"
)

// storeModel is what a Store must be indistinguishable from: a plain map and
// a sequence counter.
type storeModel struct {
	m             map[string]Change // Change.Key unused
	seq           uint64
	gets, applies uint64
}

func (m *storeModel) apply(key string, e Entry) bool {
	m.applies++
	if cur, ok := m.m[key]; ok && !cur.Entry.Stamp.Less(e.Stamp) {
		return false
	}
	m.seq++
	m.m[key] = Change{Entry: e, Seq: m.seq}
	return true
}

// changes is the model's Changes: the window's records by ascending sequence.
func (m *storeModel) changes(since, upTo uint64) []Change {
	var out []Change
	for k, c := range m.m {
		if c.Seq > since && c.Seq <= upTo {
			out = append(out, Change{Key: k, Entry: c.Entry, Seq: c.Seq})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// agrees compares everything a store can be asked with the model's answer.
func (m *storeModel) agrees(s *Store, hash func(string) uint64, since, upTo uint64) error {
	keys, snap, size := make([]string, 0, len(m.m)), make(map[string]Entry, len(m.m)), int64(0)
	for k, c := range m.m {
		keys = append(keys, k)
		snap[k] = c.Entry
		size += int64(itemWireSize(k, c.Entry))
		m.gets++
		if got, ok := s.get(k, hash(k)); !ok || !reflect.DeepEqual(got, c.Entry) {
			return fmt.Errorf("Get(%q) = %+v, %v; want %+v", k, got, ok, c.Entry)
		}
	}
	sort.Strings(keys)
	got := s.Keys()
	sort.Strings(got)
	switch {
	case s.Len() != len(m.m):
		return fmt.Errorf("Len = %d, want %d", s.Len(), len(m.m))
	case !reflect.DeepEqual(got, keys):
		return fmt.Errorf("Keys = %q, want %q", got, keys)
	case !reflect.DeepEqual(s.Snapshot(), snap):
		return fmt.Errorf("Snapshot = %v, want %v", s.Snapshot(), snap)
	case s.WireSize() != size:
		return fmt.Errorf("WireSize = %d, want %d", s.WireSize(), size)
	case s.Seq() != m.seq:
		return fmt.Errorf("Seq = %d, want %d", s.Seq(), m.seq)
	case !reflect.DeepEqual(s.Changes(since, upTo), m.changes(since, upTo)):
		return fmt.Errorf("Changes(%d, %d) = %v, want %v", since, upTo, s.Changes(since, upTo), m.changes(since, upTo))
	}
	st := s.Stats()
	if want := (StoreStats{Keys: len(m.m), Gets: m.gets, Applies: m.applies, Adopted: m.seq, Seq: m.seq}); st != want {
		return fmt.Errorf("Stats = %+v, want %+v", st, want)
	}
	return nil
}

// The hashes a model run can put under the store: the real one, one under
// another seed, oneSlot, which sends every key to the same home slot and
// tag, so nothing but the comparison of key bytes tells two keys apart (and
// the one table can never split, only grow), and noBit30, another seed's
// tags with their second-highest bit cleared, so the store splits once, on
// the top bit, and its two tables can only grow.
var (
	otherSeed = maphash.MakeSeed()
	modelHash = []func(string) uint64{
		hash,
		func(k string) uint64 { return maphash.String(otherSeed, k) },
		func(string) uint64 { return 5 },
		func(k string) uint64 { return maphash.String(otherSeed, k) &^ (1 << 30) },
	}
)

const (
	hashOneSlot = 2
	hashNoBit30 = 3
)

// modelCounters are the stamp counters a model run draws from, in order:
// four small ones and four on either side of 2^32-1, where a slot's ctr
// stops being the counter and apply must ask the box.
var modelCounters = [8]uint64{1, 2, 3, 4, math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + 1, math.MaxUint32 + 2}

// checkStoreAgainstModel runs prog — three bytes a step: key, operation and
// value length, stamp — against a store under the chosen hash and against
// the model, comparing every answer after every step. Stamps come from
// eight counters and three writers, so equal-stamp and stale re-applies are
// as common as adoptions; values change length, so a re-write moves
// WireSize both ways.
func checkStoreAgainstModel(t testing.TB, prog []byte, nKeys int, hash func(string) uint64) *Store {
	s, m := NewStore(), &storeModel{m: map[string]Change{}}
	for step := 0; len(prog) >= 3; step, prog = step+1, prog[3:] {
		key := fmt.Sprintf("user/%d/profile", (int(prog[0])|int(prog[1]&1)<<8)%nKeys)
		if prog[1]&2 != 0 {
			m.gets++
			got, ok := s.get(key, hash(key))
			if want, wok := m.m[key]; ok != wok || !reflect.DeepEqual(got, want.Entry) {
				t.Fatalf("step %d: Get(%q) = %+v, %v; want %+v, %v", step, key, got, ok, want.Entry, wok)
			}
		} else {
			e := Entry{
				Value: make([]byte, prog[1]>>2),
				Stamp: ts.Stamp{Counter: modelCounters[prog[2]&7], Writer: uint32(prog[2]>>3) % 3},
			}
			if prog[2]&0x80 != 0 {
				e.Sig = []byte{prog[2]}
			}
			if got, want := s.apply(key, e, hash(key)), m.apply(key, e); got != want {
				t.Fatalf("step %d: Apply(%q, %v) = %v, want %v", step, key, e.Stamp, got, want)
			}
		}
		// A window of the sequence space chosen by the step's own bytes.
		since := uint64(prog[0]) * (m.seq + 1) / 256
		upTo := since + uint64(prog[2])*(m.seq+2-since)/256
		if err := m.agrees(s, hash, since, upTo); err != nil {
			t.Fatalf("step %d (%q): %v", step, key, err)
		}
	}
	return s
}

// TestStoreMatchesModel is the store's functional contract, held against a
// map: seeded random streams under each hash, comparing every answer after
// every step. Under the two seeded hashes the runs of a few hundred keys
// take the store's one table 0 → 4 → … → 128 slots, split it, and go on
// splitting tables and doubling the directory; under oneSlot the one table
// grows past 128 slots instead; under noBit30 the store splits once and its
// tables then grow (each checked at the end).
func TestStoreMatchesModel(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 48 {
		t.Errorf("a slot is %d bytes, want 48: probe words, the key and the reply box", got)
	}
	if got := unsafe.Sizeof(Store{}); got != 64 {
		t.Errorf("a store is %d bytes, want one 64-byte line", got)
	}
	for h, hash := range modelHash {
		for seed := int64(1); seed <= 2; seed++ {
			nKeys, steps := 400, 800
			if h == hashOneSlot { // every probe walks the whole run
				nKeys, steps = 300, 500 // the fuzz target's key space
			}
			prog := make([]byte, 3*steps)
			rand.New(rand.NewSource(seed)).Read(prog)
			s := checkStoreAgainstModel(t, prog, nKeys, hash)
			tables, biggest := 0, 0
			s.tables(func(t []slot) { tables, biggest = tables+1, max(biggest, len(t)) })
			var want string
			var ok bool
			switch h {
			case hashOneSlot:
				want, ok = "one table grown past 128 slots", s.depth == 0 && biggest > tableSlots
			case hashNoBit30:
				want, ok = "directory depth 1 over tables grown past 128 slots", s.depth == 1 && biggest > tableSlots
			default:
				want, ok = "directory depth ≥ 2 over 128-slot tables", s.depth >= 2 && biggest == tableSlots
			}
			if !ok {
				t.Errorf("hash %d seed %d: directory depth %d, %d tables of at most %d slots; want %s", h, seed, s.depth, tables, biggest, want)
			}
		}
	}
}

// FuzzStoreAgainstModel is TestStoreMatchesModel with the stream and the
// hash chosen by the fuzzer.
func FuzzStoreAgainstModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 2, 0, 1, 0, 9}, uint8(0))
	f.Add([]byte{7, 4, 0x81, 7, 0, 0x82, 8, 0, 3, 7, 2, 0}, uint8(hashOneSlot))
	f.Fuzz(func(t *testing.T, prog []byte, h uint8) {
		if len(prog) > 3*600 {
			prog = prog[:3*600]
		}
		checkStoreAgainstModel(t, prog, 300, modelHash[int(h)%len(modelHash)])
	})
}

// TestStoreSeedIndependence: the tables' layout — which the hash seed
// decides — reaches no output. Two stores fed one stream under differently
// seeded hashes give the same answers in the same order (Keys apart, which
// promises none), and no worse a probe for it: under either seed 100 000
// keys sharing a long prefix split into 128-slot tables, none of which had
// to grow instead, and sit 4 slots from home in the mean, and each table's
// farthest key 40 slots out in the mean over tables. Linear probing at load
// a puts a stored key (1/(1-a) - 1)/2 slots out, 3.5 at the 7/8 ceiling; at
// that ceiling (112 keys in 128 slots) a table's farthest key sits 35.6
// slots out in the mean, with a standard deviation of 15.7, so over the
// thousand-odd tables here 40 is nine standard errors above what even full
// tables would give. A table's farthest key can sit no more than 111 slots
// out, so that is bounded whatever the hash; a hash that let the shared
// prefix through would cluster the tags, and the tables would grow instead
// of splitting or their keys would queue behind each other.
func TestStoreSeedIndependence(t *testing.T) {
	prog := make([]byte, 3*600)
	rand.New(rand.NewSource(7)).Read(prog)
	a := checkStoreAgainstModel(t, prog, 300, modelHash[0])
	b := checkStoreAgainstModel(t, prog, 300, modelHash[1])
	if ca, cb := a.Changes(0, a.Seq()), b.Changes(0, b.Seq()); len(ca) == 0 || !reflect.DeepEqual(ca, cb) {
		t.Errorf("Changes differ between seeds:\n%v\n%v", ca, cb)
	}
	if a.WireSize() != b.WireSize() || !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Error("WireSize or Snapshot differ between seeds")
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Errorf("Stats differ between seeds: %+v, %+v", sa, sb)
	}

	const n = 100_000
	for h, hash := range modelHash[:2] {
		s := NewStore()
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("user/%d/profile", i)
			s.apply(k, Entry{Stamp: ts.Stamp{Counter: 1}}, hash(k))
		}
		sum, worsts, slots, tables := 0, 0, 0, 0
		s.tables(func(tb []slot) {
			worst := 0
			for i := range tb {
				if sl := &tb[i]; sl.seq != 0 {
					d := (i - int(sl.tag)) & (len(tb) - 1)
					worst, sum = max(worst, d), sum+d
				}
			}
			if len(tb) != tableSlots {
				t.Errorf("hash %d: a table of %d slots", h, len(tb))
			}
			tables, slots, worsts = tables+1, slots+len(tb), worsts+worst
		})
		mean, worst := float64(sum)/n, float64(worsts)/float64(tables)
		t.Logf("hash %d: %d tables at directory depth %d; keys %.2f slots from home in the mean, each table's farthest %.1f in the mean", h, tables, s.depth, mean, worst)
		if mean > 4 || worst > 40 {
			t.Errorf("hash %d: keys sit %.1f slots from home in the mean and each table's farthest %.1f, want ≤ 4 and ≤ 40", h, mean, worst)
		}
		if s.Len() != n || slots*7 < n*8 || slots > 4*n {
			t.Errorf("hash %d: %d keys in %d slots", h, s.Len(), slots)
		}
	}
}
