package replica

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pqs/internal/ts"
	"pqs/internal/wire"
)

// warmStores returns n stores that already hold key, so that adopting a new
// version of it grows no table and allocates nothing but a reply box.
func warmStores(n int, key string) []*Store {
	stores := make([]*Store, n)
	for i := range stores {
		stores[i] = NewStore()
		stores[i].Apply(key, Entry{Stamp: ts.Stamp{Counter: 1, Writer: uint32(i)}})
	}
	return stores
}

// holds reports how s's record of key differs from want: what Get returns,
// and the box an honest read is answered with. Slices are compared by
// reflect.DeepEqual, which keeps nil apart from empty.
func holds(s *Store, key string, want Entry) error {
	if got, ok := s.Get(key); !ok || !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Get(%q) = %+v, %v; want %+v", key, got, ok, want)
	}
	if box, wantBox := s.reply(key), any(wire.ReadReply{Found: true, Value: want.Value, Stamp: want.Stamp, Sig: want.Sig}); !reflect.DeepEqual(box, wantBox) {
		return fmt.Errorf("read reply of %q = %+v, want %+v", key, box, wantBox)
	}
	return nil
}

// TestAdoptersShareOneBox: the stores of one process that adopt the same
// write — an equal stamp, and the same Value and Sig slices — hold one reply
// box between them, and anything short of the same write gets its own.
func TestAdoptersShareOneBox(t *testing.T) {
	const key = "k"
	t.Run("fan-out", func(t *testing.T) {
		// MemNetwork's shape: one request value handed to q members in turn.
		const q = 23
		stores := warmStores(q, key)
		val, sig := []byte("v"), []byte("sig")
		var e Entry
		counter := uint64(1)
		allocs := testing.AllocsPerRun(100, func() {
			counter++
			e = Entry{Value: val, Stamp: ts.Stamp{Counter: counter, Writer: 1}, Sig: sig}
			for i, s := range stores {
				if !s.Apply(key, e) {
					t.Fatalf("store %d did not adopt %v", i, e.Stamp)
				}
			}
		})
		if allocs != 1 {
			t.Errorf("one write adopted by %d stores: %v allocs, want 1 (the box they share)", q, allocs)
		}
		for i, s := range stores {
			if err := holds(s, key, e); err != nil {
				t.Errorf("store %d: %v", i, err)
			}
		}
	})
	t.Run("copy", func(t *testing.T) {
		// Over TCP each member decodes its own copy of the value.
		stores := warmStores(2, key)
		// Equal bytes, length and capacity: only the arrays differ.
		val, cp := make([]byte, 5), make([]byte, 5)
		copy(val, "value")
		copy(cp, val)
		counter := uint64(1)
		allocs := testing.AllocsPerRun(100, func() {
			counter++
			st := ts.Stamp{Counter: counter, Writer: 1}
			stores[0].Apply(key, Entry{Value: val, Stamp: st})
			stores[1].Apply(key, Entry{Value: cp, Stamp: st})
		})
		if allocs != 2 {
			t.Errorf("one stamp over two copies of its value: %v allocs, want 2 (a box each)", allocs)
		}
		st := ts.Stamp{Counter: counter, Writer: 1}
		for i, v := range [][]byte{val, cp} {
			if err := holds(stores[i], key, Entry{Value: v, Stamp: st}); err != nil {
				t.Errorf("store %d: %v", i, err)
			}
			if got, _ := stores[i].Get(key); &got.Value[0] != &v[0] {
				t.Errorf("store %d holds another array than the value it adopted", i)
			}
		}
	})
	t.Run("nil vs empty", func(t *testing.T) {
		st := ts.Stamp{Counter: 2, Writer: 1}
		for _, es := range [][2]Entry{
			{{Value: nil, Stamp: st}, {Value: []byte{}, Stamp: st}},
			{{Value: []byte{}, Stamp: st}, {Value: nil, Stamp: st}},
			{{Stamp: st, Sig: nil}, {Stamp: st, Sig: []byte{}}},
			{{Stamp: st, Sig: []byte{}}, {Stamp: st, Sig: nil}},
		} {
			stores := warmStores(2, key)
			for i, e := range es {
				stores[i].Apply(key, e)
			}
			for i, e := range es {
				if err := holds(stores[i], key, e); err != nil {
					t.Errorf("store %d of %+v: %v", i, es, err)
				}
			}
		}
	})
	t.Run("interleaving", func(t *testing.T) {
		// Writes A, B, A: the one box remembered flips between writes, and
		// a write seen again under a newer stamp is a new write.
		stores := warmStores(4, key)
		a, b := []byte("a"), []byte("b")
		writes := []Entry{
			{Value: a, Stamp: ts.Stamp{Counter: 2, Writer: 1}},
			{Value: b, Stamp: ts.Stamp{Counter: 3, Writer: 2}},
			{Value: a, Stamp: ts.Stamp{Counter: 4, Writer: 1}},
		}
		for _, e := range writes {
			for _, s := range stores {
				s.Apply(key, e)
				s.Apply("a", writes[0])
				s.Apply("b", writes[1])
			}
		}
		for i, s := range stores {
			for k, want := range map[string]Entry{key: writes[2], "a": writes[0], "b": writes[1]} {
				if err := holds(s, k, want); err != nil {
					t.Errorf("store %d: %v", i, err)
				}
			}
		}
	})
}

// TestSharedBoxesUnderConcurrentWriters: four writers fan their own writes
// out over one set of stores at once, each visiting the stores in its own
// order, so the remembered box changes hands in the middle of fan-outs.
// Every store ends holding the last-writer-wins entry of every key, and its
// reply box says exactly that entry. Run under -race (make race covers the
// package).
func TestSharedBoxesUnderConcurrentWriters(t *testing.T) {
	const writers, nStores, keys, rounds = 4, 8, 16, 300
	stores := make([]*Store, nStores)
	for i := range stores {
		stores[i] = NewStore()
	}
	written := make([][]Entry, writers) // by writer, by round; key (i*7+w) % keys
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		written[w] = make([]Entry, rounds)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range written[w] {
				e := Entry{Value: []byte(fmt.Sprintf("w%d-%d", w, i)), Stamp: ts.Stamp{Counter: uint64(i/3 + 1), Writer: uint32(w)}}
				if i%2 == 0 {
					e.Sig = []byte{byte(w), byte(i)}
				}
				written[w][i] = e
				k := fmt.Sprintf("key-%d", (i*7+w)%keys)
				for j := range stores {
					stores[(j+3*w)%nStores].Apply(k, e)
				}
			}
		}(w)
	}
	wg.Wait()
	want := make(map[string]Entry, keys)
	for w, es := range written {
		for i, e := range es {
			k := fmt.Sprintf("key-%d", (i*7+w)%keys)
			if cur, ok := want[k]; !ok || cur.Stamp.Less(e.Stamp) {
				want[k] = e
			}
		}
	}
	for i, s := range stores {
		for k, e := range want {
			if err := holds(s, k, e); err != nil {
				t.Errorf("store %d: %v", i, err)
			}
		}
	}
}
