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
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

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

// Store is a replica's local key-value state under one lock. Its keys live
// in open-addressed tables (linear probing, lengths powers of two, no
// deletions: the store never deletes). A store starts as one table of 4
// slots that doubles, whole, up to 128 slots; past that it is a directory of
// 128-slot tables indexed by the top bits of each key's tag: extendible
// hashing, the scheme Go's own maps grow by (internal/runtime/maps), with a
// much smaller table. A full table splits in place into itself and one new
// table, doubling the directory first only if the table is the only one
// under its entries, so no Apply moves more than one table's records or
// doubles the directory more than once, and growth leaves no copy of the
// store behind. While one store fills to 2^20 keys its worst Apply fell
// from 35 ms, when growth rehashed the whole table under the lock, to about
// 1 ms (BenchmarkStoreGrowPause, collector off); and where a thousand stores grow at once (sim-mem), whole-table
// doubling allocated each store about twice over. A lookup pays one load
// more once the store has split, the directory entry before the slot.
//
// The lock, the table or directory pointer, its length and depth, the key
// count, the operation counts and the adoption sequence fill the store's one
// 64-byte line, so a read RPC touches that line, the directory entry, the
// key's slot and the slot's reply box, and a process hosting a thousand
// replicas keeps all of their lines in cache: 64 KB, where 64 locked shards
// a store would make 4 MB, more than a core's L2, and nearly every call
// would miss on its shard's line. The counts are kept under the lock, where
// a counter line of their own would cost every call a second miss; a Mutex,
// not an RWMutex, makes room for them, and a read holds it for one probe.
// It is safe for concurrent use.
type Store struct {
	mu sync.Mutex
	// tab is the store's one table while depth is 0: nil, or the first of
	// size slots. Once the store has split it is the first of the
	// directory's size = 1<<depth entries (see dir). One pointer for
	// both, as Go's maps keep theirs, keeps the store in its line.
	tab           unsafe.Pointer
	size          int
	depth         uint   // the directory's global depth; 0: one table
	n             int    // stored keys
	gets, applies uint64 // cumulative; see Stats

	// seq is the store-wide adoption sequence: every Apply that wins the
	// last-writer-wins merge draws the next number and records it against
	// the key, giving delta gossip a high-watermark to scan from
	// (Changes). Sequence numbers are store-local bookkeeping — they are
	// never serialized and two replicas' sequences are unrelated.
	seq atomic.Uint64
}

// tableSlots is the size at which a store's table stops doubling and
// splits. At 128 slots, 6 KB, a split moves at most 112 records; smaller
// tables split more often and spread a store over more directory entries,
// and at 1 024, the bound Go's maps use, no sim-mem store (225 to 448 keys)
// would ever split.
const tableSlots = 128

// table is one directory entry, 16 bytes: the entries of one table are
// 1<<(global depth - depth) consecutive ones, all with the same slots, size
// (1<<lg) and depth: the keys whose tags agree in their top depth bits.
// used, the table's occupied slot count, is kept in the first of them (see
// head). Entries twice the size, a []slot each, cost mem-fanout 4 % more CPU
// per operation: its 100 stores of 1 024 keys read their directories on
// every call, and half the bytes stay in cache.
type table struct {
	slots     *slot
	used      int32
	lg, depth uint8
}

// at returns the entry's table.
func (e *table) at() []slot { return unsafe.Slice(e.slots, 1<<e.lg) }

// set points the entry at t.
func (e *table) set(t []slot) {
	e.slots, e.lg = unsafe.SliceData(t), uint8(bits.TrailingZeros(uint(len(t))))
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
// keeps, the tag's top bits choose the key's table and its low bits the home
// slot there, so growing or splitting a table re-homes from tags and hashes
// nothing; a key's bytes are compared only where the whole tag matches.
func hash(key string) uint64 { return maphash.String(hashSeed, key) }

// dir is the directory (depth > 0).
func (s *Store) dir() []table { return unsafe.Slice((*table)(s.tab), s.size) }

// find returns key's slot, or the empty slot that ends its probe run (nil
// while the store has no table), and the size of the table it is in: apply
// keeps every allocated table at most 7/8 full. It is every call's path, so
// it indexes the directory and the table by address, as Go's maps do, with
// no bounds or overflow checks: the index is below the length by
// construction (a directory holds 1<<depth entries, a table's mask keeps a
// probe inside it).
func (s *Store) find(key string, tag uint32) (*slot, int, bool) {
	base, size := s.tab, s.size
	if s.depth != 0 {
		e := (*table)(unsafe.Add(base, uintptr(tag>>((32-s.depth)&31))*unsafe.Sizeof(table{})))
		base, size = unsafe.Pointer(e.slots), 1<<e.lg
	}
	if size == 0 {
		return nil, 0, false
	}
	mask := uintptr(size - 1)
	for i := uintptr(tag) & mask; ; i = (i + 1) & mask {
		if sl := (*slot)(unsafe.Add(base, i*unsafe.Sizeof(slot{}))); sl.seq == 0 {
			return sl, size, false
		} else if sl.tag == tag && sl.key == key {
			return sl, size, true
		}
	}
}

// head is the first directory entry of tag's table, the one that keeps its
// count (depth > 0).
func (s *Store) head(tag uint32) *table {
	dir := s.dir()
	i := tag >> (32 - s.depth)
	return &dir[i&^(1<<(s.depth-uint(dir[i].depth))-1)]
}

// grow makes room in tag's table, which one more key would take past 7/8
// full. While the store is one table of fewer than 128 slots, or where the
// table's keys all agree on the bit it would split on (a hash no seed can
// spread: tests pin one), the table doubles. Otherwise it splits in two on
// that bit, the directory doubling first if the table is the only one under
// its entries.
func (s *Store) grow(tag uint32) {
	if s.depth == 0 {
		t := unsafe.Slice((*slot)(s.tab), s.size)
		if len(t) < tableSlots || !splits(t, 1<<31) {
			t = doubled(t)
			s.tab, s.size = unsafe.Pointer(unsafe.SliceData(t)), len(t)
			return
		}
		// The one table, as a directory of one entry that now doubles.
		dir := []table{{used: int32(s.n), depth: 1}, {depth: 1}}
		dir[0].set(t)
		s.tab, s.size, s.depth = unsafe.Pointer(&dir[0]), 2, 1
		split(dir, 0, 2)
		return
	}
	dir, i := s.dir(), tag>>(32-s.depth)
	d := uint(dir[i].depth)
	span := 1 << (s.depth - d)
	first := int(i) &^ (span - 1)
	if t := dir[first].at(); d == 32 || !splits(t, 1<<(31-d)) {
		t = doubled(t)
		for j := first; j < first+span; j++ {
			dir[j].set(t)
		}
		return
	}
	if span == 1 {
		bigger := make([]table, 2*len(dir))
		for j, e := range dir {
			bigger[2*j], bigger[2*j+1] = e, e
		}
		dir, first, span = bigger, 2*first, 2
		s.tab, s.size, s.depth = unsafe.Pointer(&dir[0]), len(dir), s.depth+1
	}
	for j := first; j < first+span; j++ {
		dir[j].depth++
	}
	split(dir, first, span)
}

// split divides the table under dir[first:first+span], whose entries'
// depths already count the bit it splits on: the records with that bit set
// move to a new table of the same size under the upper half of the entries,
// and the rest are re-homed in place. It walks the table once, from just
// past a slot that was empty before anything moved, so no probe run crosses
// the start: each record taken out goes back at the first free slot from its
// home, which is at or before the slot it left, in a run the walk has
// already re-made; a record that stays and sits at its home is left there.
func split(dir []table, first, span int) {
	t := dir[first].at()
	u, bit := make([]slot, len(t)), uint32(1)<<(32-dir[first].depth)
	mask, start, moved := len(t)-1, 0, int32(0)
	for t[start].seq != 0 {
		start++
	}
	for k := 1; k <= mask; k++ {
		i := (start + k) & mask
		if t[i].seq == 0 || t[i].tag&bit == 0 && int(t[i].tag)&mask == i {
			continue // empty, or staying at its home, where put would leave it
		}
		sl := t[i]
		t[i] = slot{}
		if sl.tag&bit != 0 {
			put(u, sl)
			moved++
		} else {
			put(t, sl)
		}
	}
	upper := first + span/2
	for j := upper; j < first+span; j++ {
		dir[j].set(u)
	}
	dir[upper].used = moved
	dir[first].used -= moved
}

// splits reports whether t's records disagree on the tag bit.
func splits(t []slot, bit uint32) bool {
	var seen [2]bool
	for i := range t {
		if t[i].seq != 0 {
			seen[min(t[i].tag&bit, 1)] = true
		}
	}
	return seen[0] && seen[1]
}

// doubled is t re-homed into a table twice its size (4 slots at first).
func doubled(t []slot) []slot {
	u := make([]slot, max(4, 2*len(t)))
	for _, sl := range t {
		if sl.seq != 0 {
			put(u, sl)
		}
	}
	return u
}

// put stores sl at the first free slot from its home in t.
func put(t []slot, sl slot) {
	mask := len(t) - 1
	i := int(sl.tag) & mask
	for t[i].seq != 0 {
		i = (i + 1) & mask
	}
	t[i] = sl
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
	sl, _, ok := s.find(key, uint32(h))
	if ok {
		r = sl.reply
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
	tag := uint32(h)
	sl, size, ok := s.find(key, tag)
	if ok && !sl.older(e.Stamp) {
		s.mu.Unlock()
		return false
	}
	if !ok {
		// Grow above 7/8 full, where a stored key still sits 3.5 slots from
		// home in the mean and the table costs what the map it replaced did
		// (TestStoreFootprint); growing at 3/4 costs 13 to 23 % more heap.
		used := s.n
		if s.depth > 0 {
			used = int(s.head(tag).used)
		}
		if (used+1)*8 > size*7 {
			s.grow(tag)
			sl, _, _ = s.find(key, tag)
		}
		if s.depth > 0 {
			s.head(tag).used++
		}
		s.n++
		sl.tag, sl.key = tag, key
	}
	// The sequence number is drawn under the lock so that any number at or
	// below a Seq() observation is visible to a subsequent Changes scan
	// (the scan serializes on the same lock).
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
	s.tables(func(t []slot) {
		for i := range t {
			if sl := &t[i]; sl.seq != 0 {
				fn(sl)
			}
		}
	})
	s.mu.Unlock()
}

// tables calls fn on each of the store's tables once, in directory order.
func (s *Store) tables(fn func([]slot)) {
	if s.depth == 0 {
		fn(unsafe.Slice((*slot)(s.tab), s.size))
		return
	}
	dir := s.dir()
	for i := 0; i < len(dir); i += 1 << (s.depth - uint(dir[i].depth)) {
		fn(dir[i].at())
	}
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
