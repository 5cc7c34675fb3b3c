// Package replica implements the data servers of the paper's model: each
// server "stores a copy of the replicated variable x and an associated
// timestamp t" (Section 3.1) and answers the read/write RPCs of the access
// protocols. Fault injection is first-class: a replica can be configured
// with a Behavior that deviates arbitrarily from the protocol, which is how
// the experiment harness realizes the paper's Byzantine failure model.
package replica

import (
	"hash/maphash"
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

// numShards is the store's shard count. The load analysis puts ~l*sqrt(n)
// concurrent accesses on a busy replica; 64 shards keep the probability of
// two concurrent distinct-key operations colliding on a shard's lock small,
// and a shard is one 64-byte line, so an empty store is 4 KiB and NewStore
// allocates nothing else. Must be a power of two.
const shardBits = 6
const numShards = 1 << shardBits

// Store is a replica's local key-value state, sharded by key hash so that
// operations on distinct keys proceed without contending on a single lock.
// It is safe for concurrent use.
type Store struct {
	shards [numShards]shard

	// seq is the store-wide adoption sequence: every Apply that wins the
	// last-writer-wins merge draws the next number and records it against
	// the key, giving delta gossip a high-watermark to scan from
	// (Changes). Sequence numbers are store-local bookkeeping — they are
	// never serialized and two replicas' sequences are unrelated.
	seq atomic.Uint64

	// op counters (cumulative; see Stats)
	gets, applies, adopted atomic.Uint64
}

// shard is one lock and one open-addressed table (linear probing, length a
// power of two or zero, no deletions: the store never deletes). A read RPC
// touches the shard's line and then the key's slot, nothing in between.
type shard struct {
	mu    sync.RWMutex
	slots []slot
	n     int // occupied slots
	// bytes tracks the summed binary wire size (wire.Item.EncodedSize) of
	// the shard's current entries, so "what would a full push cost"
	// stays O(shards) to answer instead of O(keys).
	bytes int64
}

// slot is a shard's record for one key: the entry, its adoption sequence
// number (see Store.seq; 0 marks an empty slot, adoption sequences start at
// 1), the key's hash tag and the entry's cached wire size (an int32: frames
// are at most 64 MiB). The words a probe reads — seq, tag, the key's header
// — come first and together. All of it is inline, values not pointers:
// boxing records adds millions of GC-scannable objects at population scale
// (measured ~10% slower end-to-end on the scale/ matrix), and at 96 bytes a
// slot is what a Go map spent on the same key and record. The cached size
// makes the re-write path's bytes accounting one EncodedSize call instead
// of two.
type slot struct {
	seq  uint64
	tag  uint32
	size int32
	key  string
	e    Entry
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// hashSeed keys hash. Clients choose the keys, so the hash must be one they
// cannot compute: the Go map this table replaced was seeded too, and under a
// public hash a writer picking colliding keys would turn every probe of a
// shard into a scan of it. One seed per process, not per store: a store's
// own seed is a load behind its counter line's miss, and cost mem-fanout 8 %.
var hashSeed = maphash.MakeSeed()

// hash is the one hash taken of a key: its low shardBits bits pick the
// shard and the 32 above them are the tag a slot keeps. The tag's low bits
// are the home slot, so growing a table re-homes from tags and hashes
// nothing; a key's bytes are compared only where the whole tag matches.
func hash(key string) uint64 { return maphash.String(hashSeed, key) }

// find returns the index of key's slot, or of the empty slot that ends its
// probe run: apply keeps every allocated table at most 7/8 full.
func (sh *shard) find(key string, h uint64) (int, bool) {
	if len(sh.slots) == 0 {
		return 0, false
	}
	tag, mask := uint32(h>>shardBits), len(sh.slots)-1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		if sl := &sh.slots[i]; sl.seq == 0 {
			return i, false
		} else if sl.tag == tag && sl.key == key {
			return i, true
		}
	}
}

// grow doubles the table (4 slots at first: most shards of a replica hold a
// handful of keys) and re-homes every record.
func (sh *shard) grow() {
	old := sh.slots
	sh.slots = make([]slot, max(4, 2*len(old)))
	mask := len(sh.slots) - 1
	for _, sl := range old {
		if sl.seq == 0 {
			continue
		}
		i := int(sl.tag) & mask
		for sh.slots[i].seq != 0 {
			i = (i + 1) & mask
		}
		sh.slots[i] = sl
	}
}

// Get returns the entry for key, if any.
func (s *Store) Get(key string) (Entry, bool) { return s.get(key, hash(key)) }

// get is Get under a given hash (tests pin it to force collisions).
func (s *Store) get(key string, h uint64) (Entry, bool) {
	s.gets.Add(1)
	sh := &s.shards[h&(numShards-1)]
	sh.mu.RLock()
	var e Entry
	i, ok := sh.find(key, h)
	if ok {
		e = sh.slots[i].e
	}
	sh.mu.RUnlock()
	return e, ok
}

// Apply adopts the entry if its stamp strictly dominates the stored one
// (last-writer-wins merge; the standard timestamped-register update). It
// reports whether the entry was adopted.
func (s *Store) Apply(key string, e Entry) bool { return s.apply(key, e, hash(key)) }

// apply is Apply under a given hash (see get).
func (s *Store) apply(key string, e Entry, h uint64) bool {
	s.applies.Add(1)
	sh := &s.shards[h&(numShards-1)]
	sh.mu.Lock()
	i, ok := sh.find(key, h)
	if ok && !sh.slots[i].e.Stamp.Less(e.Stamp) {
		sh.mu.Unlock()
		return false
	}
	if !ok {
		// Grow above 7/8 full, where a stored key still sits 3.5 slots from
		// home in the mean and the table costs what the map it replaced did
		// (TestStoreFootprint); growing at 3/4 costs 13 to 23 % more heap.
		if sh.n++; sh.n*8 > len(sh.slots)*7 {
			sh.grow()
			i, _ = sh.find(key, h)
		}
		sh.slots[i].tag, sh.slots[i].key = uint32(h>>shardBits), key
	}
	// The sequence number is drawn under the shard lock so that any
	// number at or below a Seq() observation is visible to a subsequent
	// Changes scan of this shard (the scan serializes on the same lock).
	sl := &sh.slots[i]
	size := int32(itemWireSize(key, e))
	sh.bytes += int64(size) - int64(sl.size)
	sl.e, sl.seq, sl.size = e, s.seq.Add(1), size
	sh.mu.Unlock()
	s.adopted.Add(1)
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
// payload cost a full-snapshot gossip push would incur right now.
func (s *Store) WireSize() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.bytes
		sh.mu.RUnlock()
	}
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
			out = append(out, Change{Key: sl.key, Entry: sl.e, Seq: sl.seq})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// each calls fn on every occupied slot, shard by shard under the shard's
// read lock, in table order.
func (s *Store) each(fn func(*slot)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for j := range sh.slots {
			if sl := &sh.slots[j]; sl.seq != 0 {
				fn(sl)
			}
		}
		sh.mu.RUnlock()
	}
}

// Len returns the number of stored keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.n
		sh.mu.RUnlock()
	}
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
// write path in this library stores fresh slices). The snapshot is
// per-shard-consistent, not point-in-time across shards: concurrent writes
// may appear in some shards and not others, which is harmless to the gossip
// path (anti-entropy converges regardless of which rounds see which
// entries).
//
//pqslint:allow deadexport seam: replica and register tests compare whole stores against a model
func (s *Store) Snapshot() map[string]Entry {
	out := make(map[string]Entry, s.Len())
	s.each(func(sl *slot) { out[sl.key] = sl.e })
	return out
}

// StoreStats reports a store's shape and cumulative operation counters.
type StoreStats struct {
	// Keys is the number of stored keys; Shards the shard count.
	Keys   int
	Shards int
	// MaxShardKeys is the most keys held by one shard (skew indicator).
	MaxShardKeys int
	// Gets and Applies count operations; Adopted counts the Applies whose
	// entry won the last-writer-wins merge.
	Gets    uint64
	Applies uint64
	Adopted uint64
	// Seq is the adoption sequence (the delta-gossip high-watermark).
	Seq uint64
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Shards:  numShards,
		Gets:    s.gets.Load(),
		Applies: s.applies.Load(),
		Adopted: s.adopted.Load(),
		Seq:     s.seq.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n := sh.n
		sh.mu.RUnlock()
		st.Keys += n
		if n > st.MaxShardKeys {
			st.MaxShardKeys = n
		}
	}
	return st
}
