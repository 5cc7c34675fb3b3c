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
// another seed, and oneSlot, which sends every key to the same home slot and
// tag, so nothing but the comparison of key bytes tells two keys apart.
var (
	otherSeed = maphash.MakeSeed()
	modelHash = []func(string) uint64{
		hash,
		func(k string) uint64 { return maphash.String(otherSeed, k) },
		func(string) uint64 { return 5 },
	}
)

const hashOneSlot = 2

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
// map: seeded random streams under each hash. The runs of a few hundred keys
// take the table 0 → 4 → 8 → … → 256 slots (checked at the end), so every
// growth step and every re-homing happens under comparison.
func TestStoreMatchesModel(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 48 {
		t.Errorf("a slot is %d bytes, want 48: probe words, the key and the reply box", got)
	}
	if got := unsafe.Sizeof(Store{}); got != 64 {
		t.Errorf("a store is %d bytes, want one 64-byte line", got)
	}
	for h, hash := range modelHash {
		for seed := int64(1); seed <= 2; seed++ {
			nKeys, steps := 300, 700
			if h == hashOneSlot { // every probe walks the whole run
				nKeys, steps = 40, 300
			}
			prog := make([]byte, 3*steps)
			rand.New(rand.NewSource(seed)).Read(prog)
			s := checkStoreAgainstModel(t, prog, nKeys, hash)
			if got := len(s.slots); h != hashOneSlot && got < 256 {
				t.Errorf("hash %d seed %d: the table grew to %d slots, want ≥ 256", h, seed, got)
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

// TestStoreSeedIndependence: the table's layout — which the hash seed
// decides — reaches no output. Two stores fed one stream under differently
// seeded hashes give the same answers in the same order (Keys apart, which
// promises none), and no worse a probe for it: under either seed 100 000
// keys sharing a long prefix sit 4 slots from home in the mean and
// 32·log2(n) at worst. Linear probing at load a puts a stored key
// (1/(1-a) - 1)/2 slots out — 3.5 at the 7/8 ceiling, 1.6 at the 0.76 this n
// lands on — and its longest run grows as ln n/(a - 1 - ln a), about 160
// here, with a tail that makes 32·log2(n) = 531 a one-in-10^5 event. A hash
// that let the shared prefix through would put keys thousands of slots out.
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
		worst, sum, slots := 0, 0, len(s.slots)
		for i := range s.slots {
			if sl := &s.slots[i]; sl.seq != 0 {
				d := (i - int(sl.tag)) & (slots - 1)
				worst, sum = max(worst, d), sum+d
			}
		}
		if limit := int(32 * math.Log2(n)); worst > limit || sum > 4*n {
			t.Errorf("hash %d: keys sit %.1f slots from home in the mean and %d at worst, want ≤ 4 and ≤ %d", h, float64(sum)/n, worst, limit)
		}
		if s.Len() != n || slots*7 < n*8 || slots > 4*n {
			t.Errorf("hash %d: %d keys in %d slots", h, s.Len(), slots)
		}
	}
}
