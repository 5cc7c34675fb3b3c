// Package replica implements the data servers of the paper's model: each
// server "stores a copy of the replicated variable x and an associated
// timestamp t" (Section 3.1) and answers the read/write RPCs of the access
// protocols. Fault injection is first-class: a replica can be configured
// with a Behavior that deviates arbitrarily from the protocol, which is how
// the experiment harness realizes the paper's Byzantine failure model.
package replica

import (
	"hash/maphash"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"pqs/internal/ts"
	"pqs/internal/wire"
)

// Entry is one stored value-timestamp pair, with the writer's signature when
// self-verifying data is in use.
type Entry struct {
	Value []byte
	Stamp ts.Stamp
	Sig   []byte
}

// Store is a replica's local key-value state: one open-addressed table
// (linear probing, length a power of two or zero, no deletions: the store
// never deletes) under one lock. The lock, the table's header, its occupied
// count, the operation counts and the adoption sequence fill the store's one
// 64-byte line, so a read RPC touches that line, the key's slot and the
// slot's reply box, and a process hosting a thousand replicas keeps all of
// their lines in cache: 64 KB, where 64 locked shards a store would make
// 4 MB, more than a core's L2, and nearly every call would miss on its
// shard's line. The counts are kept under the lock, where a counter line of their
// own would cost every call a second miss; a Mutex, not an RWMutex, makes
// room for them, and a read holds it for one probe. Growth is a whole-table
// rehash under the lock: while a store of 2^20 keys doubles, its callers
// wait over a tenth of a second; the fullest store any workload builds holds
// a few thousand keys, which rehash in well under a millisecond. It is safe
// for concurrent use.
type Store struct {
	mu            sync.Mutex
	slots         []slot
	n             int    // occupied slots
	gets, applies uint64 // cumulative; see Stats

	// seq is the store-wide adoption sequence: every Apply that wins the
	// last-writer-wins merge draws the next number and records it against
	// the key, giving delta gossip a high-watermark to scan from
	// (Changes). Sequence numbers are store-local bookkeeping — they are
	// never serialized and two replicas' sequences are unrelated.
	seq atomic.Uint64
}

// slot is the store's record for one key: its adoption sequence number (see
// Store.seq; 0 marks an empty slot, adoption sequences start at 1), the
// key's hash tag, the entry's stamp counter capped at 2^32-1, and the entry
// itself, boxed as the wire.ReadReply an honest read returns. The words a
// probe reads — seq, tag, the key's header — come first and together. The
// box is made when a write is adopted, and every read of that version
// returns it as it is: boxing per read was an allocation on every read RPC
// (runtime.convT, 10 % of mem-fanout, and as much again in the malloc and
// GC it fed). It is made once per write per process, not once per slot:
// the replicas of one process that adopt the same write share its box (see
// boxed), and only a separate copy of the value, as each server decodes
// over TCP, gets a box of its own. A slot is 48 bytes plus its share of an
// 80-byte box, not 96 inline; at population scale that measured less, not
// more: sim-mem's peak RSS and CPU per op both fell 13 % with a box per
// slot. The box is a second miss behind the slot's, which a read pays in the
// client and a write would pay comparing stamps; ctr settles that comparison
// unless the counters tie or pass 32 bits (see older).
type slot struct {
	seq   uint64
	tag   uint32
	ctr   uint32
	key   string
	reply any // wire.ReadReply{Found: true, ...}
}

// older reports whether the slot's entry is stamped below st.
func (sl *slot) older(st ts.Stamp) bool {
	if sl.ctr < math.MaxUint32 && uint64(sl.ctr) != st.Counter {
		return uint64(sl.ctr) < st.Counter
	}
	return sl.reply.(wire.ReadReply).Stamp.Less(st)
}

// lastBox holds the box boxed made last, a wire.ReadReply in an any. It is
// one per process, like a sync.Pool: what it holds cannot be observed, and
// one per cluster would be a constructor argument to every New.
var lastBox atomic.Value

// boxed is e as the reply an honest read of it returns. When e is the write
// boxed was last given — an equal stamp, and a Value and Sig that are the
// same slices — it hands back that box again: on MemNetwork a write's q
// adoptions run back to back on the caller's goroutine, one request value
// handed to each member, so one write makes one box, not q. A box is
// immutable and its content is a function of exactly those fields, so no
// reader can tell a shared box from a fresh one. Where every adoption is its
// own copy of the value (over TCP each server decodes one) every call
// misses and boxes, at the cost of one atomic load and store. The cache is
// the box itself, not a struct around it: a miss allocates only the box.
func boxed(e Entry) any {
	if b := lastBox.Load(); b != nil {
		if r := b.(wire.ReadReply); r.Stamp == e.Stamp && sameSlice(r.Value, e.Value) && sameSlice(r.Sig, e.Sig) {
			return b
		}
	}
	b := any(wire.ReadReply{Found: true, Value: e.Value, Stamp: e.Stamp, Sig: e.Sig})
	lastBox.Store(b)
	return b
}

// sameSlice reports whether a and b are one slice: the same array, length
// and capacity, nil kept apart from empty. (Non-nil slices of capacity 0
// hold nothing a reader could tell apart.)
func sameSlice(a, b []byte) bool {
	if len(a) != len(b) || cap(a) != cap(b) || (a == nil) != (b == nil) {
		return false
	}
	return cap(a) == 0 || &a[:cap(a)][0] == &b[:cap(b)][0]
}

// entryOf is boxed's inverse (the zero Entry for the absent-key reply).
func entryOf(reply any) Entry {
	r := reply.(wire.ReadReply)
	return Entry{Value: r.Value, Stamp: r.Stamp, Sig: r.Sig}
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// hashSeed keys hash. Clients choose the keys, so the hash must be one they
// cannot compute: the Go map this table replaced was seeded too, and under a
// public hash a writer picking colliding keys would turn every probe of a
// table into a scan of it. One seed per process, not per store: a store's
// own seed is a line to load before the hash can start; it cost mem-fanout 8 %.
var hashSeed = maphash.MakeSeed()

// hash is the one hash taken of a key: its low 32 bits are the tag a slot
// keeps, and the tag's low bits are the home slot, so growing the table
// re-homes from tags and hashes nothing; a key's bytes are compared only
// where the whole tag matches.
func hash(key string) uint64 { return maphash.String(hashSeed, key) }

// find returns the index of key's slot, or of the empty slot that ends its
// probe run: apply keeps every allocated table at most 7/8 full.
func (s *Store) find(key string, h uint64) (int, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	tag, mask := uint32(h), len(s.slots)-1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		if sl := &s.slots[i]; sl.seq == 0 {
			return i, false
		} else if sl.tag == tag && sl.key == key {
			return i, true
		}
	}
}

// grow doubles the table (4 slots at first) and re-homes every record.
func (s *Store) grow() {
	old := s.slots
	s.slots = make([]slot, max(4, 2*len(old)))
	mask := len(s.slots) - 1
	for _, sl := range old {
		if sl.seq == 0 {
			continue
		}
		i := int(sl.tag) & mask
		for s.slots[i].seq != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// Get returns the entry for key, if any.
func (s *Store) Get(key string) (Entry, bool) { return s.get(key, hash(key)) }

// get is Get under a given hash (tests pin it to force collisions).
func (s *Store) get(key string, h uint64) (Entry, bool) {
	r, ok := s.lookup(key, h)
	return entryOf(r), ok
}

// reply is an honest read's answer: the box apply made, or readReplyAbsent.
func (s *Store) reply(key string) any {
	r, _ := s.lookup(key, hash(key))
	return r
}

// lookup is the one read path: it counts a get and returns key's reply box.
func (s *Store) lookup(key string, h uint64) (any, bool) {
	s.mu.Lock()
	s.gets++
	r := readReplyAbsent
	i, ok := s.find(key, h)
	if ok {
		r = s.slots[i].reply
	}
	s.mu.Unlock()
	return r, ok
}

// Apply adopts the entry if its stamp strictly dominates the stored one
// (last-writer-wins merge; the standard timestamped-register update). It
// reports whether the entry was adopted.
func (s *Store) Apply(key string, e Entry) bool { return s.apply(key, e, hash(key)) }

// apply is Apply under a given hash (see get).
func (s *Store) apply(key string, e Entry, h uint64) bool {
	s.mu.Lock()
	s.applies++
	i, ok := s.find(key, h)
	if ok && !s.slots[i].older(e.Stamp) {
		s.mu.Unlock()
		return false
	}
	if !ok {
		// Grow above 7/8 full, where a stored key still sits 3.5 slots from
		// home in the mean and the table costs what the map it replaced did
		// (TestStoreFootprint); growing at 3/4 costs 13 to 23 % more heap.
		if s.n++; s.n*8 > len(s.slots)*7 {
			s.grow()
			i, _ = s.find(key, h)
		}
		s.slots[i].tag, s.slots[i].key = uint32(h), key
	}
	// The sequence number is drawn under the lock so that any number at or
	// below a Seq() observation is visible to a subsequent Changes scan
	// (the scan serializes on the same lock).
	sl := &s.slots[i]
	sl.reply, sl.seq, sl.ctr = boxed(e), s.seq.Add(1), uint32(min(e.Stamp.Counter, math.MaxUint32))
	s.mu.Unlock()
	return true
}

// itemWireSize is the exact binary-codec size of the entry as a gossip item.
func itemWireSize(key string, e Entry) int {
	return wire.Item{Key: key, Value: e.Value, Stamp: e.Stamp, Sig: e.Sig}.EncodedSize()
}

// Seq returns the store's current adoption sequence. Entries adopted at or
// below the returned value are guaranteed visible to a later Changes scan.
func (s *Store) Seq() uint64 { return s.seq.Load() }

// WireSize returns the summed binary wire size of all current entries — the
// payload cost a full-snapshot gossip push would incur right now. It is
// O(keys), like the Changes scan each gossip round makes beside it: a size
// kept per slot would cost a write the miss on the old box that ctr saves.
func (s *Store) WireSize() int64 {
	var n int64
	s.each(func(sl *slot) { n += int64(itemWireSize(sl.key, entryOf(sl.reply))) })
	return n
}

// Change is one entry surfaced by Changes, with the adoption sequence it was
// recorded under.
type Change struct {
	Key   string
	Entry Entry
	Seq   uint64
}

// Changes returns the entries adopted with sequence numbers in
// (since, upTo], ordered by ascending sequence. The ordering is
// deterministic (table order, which the hash seed decides, never leaks into
// the result), which matters on simulated transports: gossip frame bytes —
// and therefore compressed frame sizes and virtual-link pacing — must replay
// identically for a given seed. The scan is O(keys); a store-side ring of
// recent adoptions could make it O(delta) if gossip rounds ever dominate
// profiles.
func (s *Store) Changes(since, upTo uint64) []Change {
	if upTo <= since {
		return nil
	}
	var out []Change
	s.each(func(sl *slot) {
		if sl.seq > since && sl.seq <= upTo {
			out = append(out, Change{Key: sl.key, Entry: entryOf(sl.reply), Seq: sl.seq})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// each calls fn on every occupied slot under the lock, in table order.
func (s *Store) each(fn func(*slot)) {
	s.mu.Lock()
	for i := range s.slots {
		if sl := &s.slots[i]; sl.seq != 0 {
			fn(sl)
		}
	}
	s.mu.Unlock()
}

// Len returns the number of stored keys.
func (s *Store) Len() int {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	return n
}

// Keys returns all stored keys (unordered).
func (s *Store) Keys() []string {
	out := make([]string, 0, s.Len())
	s.each(func(sl *slot) { out = append(out, sl.key) })
	return out
}

// Snapshot returns a copy of the full key-entry map. Entries share the
// underlying value slices, which callers must treat as immutable (every
// write path in this library stores fresh slices). The snapshot is taken
// under the lock, so it is the store at one instant.
//
//pqslint:allow deadexport seam: replica and register tests compare whole stores against a model
func (s *Store) Snapshot() map[string]Entry {
	out := make(map[string]Entry, s.Len())
	s.each(func(sl *slot) { out[sl.key] = entryOf(sl.reply) })
	return out
}

// StoreStats reports a store's shape and cumulative operation counters.
type StoreStats struct {
	// Keys is the number of stored keys.
	Keys int
	// Gets and Applies count operations; Adopted counts the Applies whose
	// entry won the last-writer-wins merge, which is what Seq counts too.
	Gets    uint64
	Applies uint64
	Adopted uint64
	// Seq is the adoption sequence (the delta-gossip high-watermark).
	Seq uint64
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	seq := s.seq.Load()
	st := StoreStats{Keys: s.n, Gets: s.gets, Applies: s.applies, Adopted: seq, Seq: seq}
	s.mu.Unlock()
	return st
}
