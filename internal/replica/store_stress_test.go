package replica

import (
	"fmt"
	"sync"
	"testing"

	"pqs/internal/ts"
)

// TestStoreConcurrentStress hammers the sharded store from many goroutines
// mixing Apply, Get, Len, Keys, Snapshot, Changes and Stats, while the
// writers grow every shard's table under the readers. Run under -race (the
// Makefile's race target includes this package); correctness assertions
// check the last-writer-wins merge survived the contention, and that a
// Changes scan racing adoptions still lists each key once, by ascending
// sequence, up to the Seq it was given.
func TestStoreConcurrentStress(t *testing.T) {
	s := NewStore()
	const (
		writers = 8
		readers = 8
		keys    = 128
		rounds  = 400
	)
	key := func(i int) string { return fmt.Sprintf("key-%03d", i%keys) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := key(i + w)
				s.Apply(k, Entry{
					Value: []byte(fmt.Sprintf("w%d-%d", w, i)),
					Stamp: ts.Stamp{Counter: uint64(i + 1), Writer: uint32(w)},
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 5 {
				case 0:
					s.Get(key(i + r))
				case 1:
					if got := s.Len(); got < 0 || got > keys {
						t.Errorf("Len = %d outside [0, %d]", got, keys)
						return
					}
				case 2:
					for _, e := range s.Snapshot() {
						if e.Stamp.IsZero() {
							t.Error("snapshot holds zero-stamp entry")
							return
						}
					}
				case 3:
					upTo, seen, last := s.Seq(), make(map[string]bool), uint64(0)
					for _, c := range s.Changes(0, upTo) {
						if c.Seq <= last || c.Seq > upTo || seen[c.Key] {
							t.Errorf("Changes(0, %d): seq %d for %s after seq %d (seen before: %v)", upTo, c.Seq, c.Key, last, seen[c.Key])
							return
						}
						last, seen[c.Key] = c.Seq, true
					}
				default:
					s.Keys()
				}
			}
		}(r)
	}
	wg.Wait()

	if got := s.Len(); got != keys {
		t.Fatalf("Len = %d, want %d", got, keys)
	}
	if got := len(s.Keys()); got != keys {
		t.Fatalf("Keys() returned %d keys, want %d", got, keys)
	}
	// Every key must hold the highest (counter, writer) pair written to it:
	// counter rounds-1..rounds per key per writer; the winner is the highest
	// counter with the highest writer as tiebreak.
	snap := s.Snapshot()
	for k, e := range snap {
		if e.Stamp.Counter == 0 || e.Stamp.Counter > rounds {
			t.Fatalf("%s: counter %d outside [1, %d]", k, e.Stamp.Counter, rounds)
		}
	}
	st := s.Stats()
	if st.Keys != keys {
		t.Fatalf("stats: %+v", st)
	}
	if st.Applies != writers*rounds {
		t.Fatalf("applies %d, want %d", st.Applies, writers*rounds)
	}
	if st.Adopted == 0 || st.Adopted > st.Applies {
		t.Fatalf("adopted %d outside (0, %d]", st.Adopted, st.Applies)
	}
	if st.Gets == 0 {
		t.Fatal("gets counter did not advance")
	}
	// The winner of each key's merge must dominate all stamps any loser
	// wrote: spot-check that re-applying a losing stamp is rejected.
	for k, e := range snap {
		if s.Apply(k, Entry{Value: []byte("stale"), Stamp: ts.Stamp{Counter: e.Stamp.Counter, Writer: e.Stamp.Writer}}) {
			t.Fatalf("%s: equal stamp re-adopted", k)
		}
		break
	}
}
