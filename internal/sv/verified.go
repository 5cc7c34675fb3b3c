package sv

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"pqs/internal/ts"
)

// fingerprint names one (public key, signature, key, value, stamp) tuple in
// a verifiedSet.
type fingerprint [sha256.Size]byte

// fingerprintStack is the size of the stack buffer a tuple is encoded into
// for hashing: the 96 bytes of key material and signature, the 28 bytes of
// Digest's framing, and 132 left for key and value, which covers the small
// values whose reads this is meant to make cheap. A larger tuple is hashed
// from a heap copy, as Verify has always made one to check it.
const fingerprintStack = 256

// fingerprintOf is SHA-256 over pub, sig and Digest's length-prefixed
// encoding of the rest. pub and sig need no prefix of their own: every
// caller has checked that they are ed25519.PublicKeySize and
// ed25519.SignatureSize bytes long, so no two distinct tuples share an
// encoding. SHA-256 and not a seeded table hash, because whoever answers a
// read chooses the bytes: accepting a tuple on its fingerprint is only sound
// if nobody can construct a second tuple with the same one.
func fingerprintOf(pub ed25519.PublicKey, sig []byte, key string, value []byte, stamp ts.Stamp) fingerprint {
	var stack [fingerprintStack]byte
	buf := append(stack[:0], pub...)
	buf = append(buf, sig...)
	return sha256.Sum256(appendDigest(buf, key, value, stamp))
}

// The set's shape. Sized for a process's live tuples — the newest version or
// two of every key it reads — numbering in the hundreds (the benchmark's
// signed workload has 256 keys): 2016 slots hold that several times over, and
// a tuple leaves its pair only after two later arrivals hash to the same one.
// 63 pairs to a shard and not 64, so that the whole set, locks included, is
// 64 640 bytes and fits the eight pages a 64 KiB allocation gets.
const (
	setShards  = 16
	shardPairs = 63
)

// verifiedSet is a fixed-size, two-way set-associative set of fingerprints:
// a fingerprint selects a shard and a pair within it, and lives in one of the
// pair's two slots, slot 0 being the more recently used. An empty slot holds
// the zero fingerprint, which no tuple hashes to. Losing an entry is
// harmless (the tuple is verified again); the set never holds one that was
// not put there by add.
type verifiedSet [setShards]struct {
	mu    sync.Mutex
	pairs [shardPairs][2]fingerprint
}

// pair returns the lock and the two slots fp maps to.
func (s *verifiedSet) pair(fp fingerprint) (*sync.Mutex, *[2]fingerprint) {
	sh := &s[fp[0]%setShards]
	return &sh.mu, &sh.pairs[binary.LittleEndian.Uint16(fp[1:])%shardPairs]
}

// has reports whether fp is in the set. A hit is moved to slot 0, so of two
// tuples sharing a pair the one still being read is the one that stays.
func (s *verifiedSet) has(fp fingerprint) bool {
	mu, p := s.pair(fp)
	mu.Lock()
	defer mu.Unlock()
	switch fp {
	case p[0]:
		return true
	case p[1]:
		p[0], p[1] = p[1], p[0]
		return true
	}
	return false
}

// add puts fp in slot 0 of its pair, moving the previous occupant to slot 1
// and dropping what was there.
func (s *verifiedSet) add(fp fingerprint) {
	mu, p := s.pair(fp)
	mu.Lock()
	defer mu.Unlock()
	if p[0] != fp {
		p[1] = p[0]
		p[0] = fp
	}
}
