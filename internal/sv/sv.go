// Package sv implements self-verifying data for (b, ε)-dissemination quorum
// systems (Section 4 of the paper): data that faulty servers "can suppress
// but not undetectably alter". Writers sign (key, value, timestamp) tuples
// with ed25519; readers verify signatures against a registry of authorized
// writer keys, so any fabricated or altered value is rejected and a faulty
// server is reduced to replaying old-but-genuine values, which timestamps
// already order out.
//
// A signature is verified once per value, not once per read: a Registry
// remembers which tuples it has seen verify (verified.go), and four rules
// keep that memory from ever changing a verdict.
//
//   - Positive only. A fingerprint enters the set after ed25519.Verify
//     returned true for exactly those bytes, or when this process produced
//     the signature itself; a failed check is never remembered, so a forger
//     pays one real check per read and can neither fill nor poison the set.
//   - The whole tuple, under a cryptographic hash. A fingerprint is SHA-256
//     over the writer's public key, the signature, the key, the value and the
//     stamp; the value bytes are the adversary's to choose, so nothing weaker
//     than a collision-resistant hash will do. Binding the public key means
//     that replacing a writer's key with Add strands every entry made under
//     the old one.
//   - Bounded and constant. The set is a fixed 64 KiB per registry, with no
//     knob; overflow evicts, and an evicted tuple costs one re-verification,
//     never a wrong answer.
//   - The sign-side insert happens only under the registered key: SignEntry
//     notes its own signature iff the registry's key for the stamp's writer
//     is byte-equal to the signer's public half.
package sv

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"pqs/internal/ts"
)

// KeyPair holds a writer's ed25519 key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// GenerateKey creates a fresh key pair from the given entropy source
// (crypto/rand.Reader in production; a deterministic reader in tests).
func GenerateKey(rand io.Reader) (KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return KeyPair{}, fmt.Errorf("sv: generating key: %w", err)
	}
	return KeyPair{Public: pub, Private: priv}, nil
}

// digestSize is the length of Digest's output for a key and value of the
// given lengths.
func digestSize(keyLen, valueLen int) int { return 8 + keyLen + 8 + valueLen + 12 }

// appendDigest appends Digest's encoding of the tuple to buf.
func appendDigest(buf []byte, key string, value []byte, stamp ts.Stamp) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(value)))
	buf = append(buf, value...)
	buf = binary.BigEndian.AppendUint64(buf, stamp.Counter)
	return binary.BigEndian.AppendUint32(buf, stamp.Writer)
}

// Digest produces the canonical byte string that is signed for a
// (key, value, stamp) tuple. Fields are length-prefixed so that no two
// distinct tuples share an encoding.
func Digest(key string, value []byte, stamp ts.Stamp) []byte {
	return appendDigest(make([]byte, 0, digestSize(len(key), len(value))), key, value, stamp)
}

// Sign returns the writer's signature over the tuple.
func Sign(priv ed25519.PrivateKey, key string, value []byte, stamp ts.Stamp) []byte {
	return ed25519.Sign(priv, Digest(key, value, stamp))
}

// Verify reports whether sig is a valid signature over the tuple under pub.
// A key or signature of the wrong length is rejected before the digest is
// built, so such a forgery costs no copy of the value it rides on. Verify
// consults no memory of earlier checks: it is the reference a Registry's
// verdicts are tested against.
func Verify(pub ed25519.PublicKey, key string, value []byte, stamp ts.Stamp, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, Digest(key, value, stamp), sig)
}

// Registry maps writer ids to their public keys. Readers consult it to
// decide which replies are verifiable (step 3 of the Section 4 read
// protocol), and it remembers which tuples have already verified (see the
// package comment). Registry is safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	keys map[uint32]ed25519.PublicKey

	verified *verifiedSet
	// check is ed25519.Verify; a field so that tests can count the calls.
	check func(pub ed25519.PublicKey, message, sig []byte) bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		keys:     make(map[uint32]ed25519.PublicKey),
		verified: new(verifiedSet),
		check:    ed25519.Verify,
	}
}

// Add registers (or replaces) the public key for a writer. A key that is
// not ed25519.PublicKeySize bytes long could verify nothing and is refused.
// Replacing a key makes every tuple verified under the old one unreachable:
// its fingerprint was taken over the old key.
func (r *Registry) Add(writer uint32, pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("sv: public key of writer %d is %d bytes long, want %d", writer, len(pub), ed25519.PublicKeySize)
	}
	cp := make(ed25519.PublicKey, len(pub))
	copy(cp, pub)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[writer] = cp
	return nil
}

// Lookup returns the public key for a writer, if registered.
func (r *Registry) Lookup(writer uint32) (ed25519.PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.keys[writer]
	return pub, ok
}

// Cost says what a verdict cost the registry that gave it.
type Cost uint8

// The three ways Judge reaches a verdict.
const (
	// Rejected: an unknown writer or a signature of the wrong length, turned
	// away before anything was hashed.
	Rejected Cost = iota
	// Reused: the tuple was in the verified set.
	Reused
	// Checked: ed25519.Verify ran.
	Checked
)

// Judge checks a reply tuple against the registered key of the writer named
// in the stamp, and says what the verdict cost. Unknown writers are not
// verifiable. A tuple this registry has seen verify under the writer's
// current key (or signed, see SignEntry) is accepted on its fingerprint;
// anything else gets a real signature check, and only a check that passes is
// remembered.
func (r *Registry) Judge(key string, value []byte, stamp ts.Stamp, sig []byte) (ok bool, cost Cost) {
	pub, known := r.Lookup(stamp.Writer)
	if !known || len(sig) != ed25519.SignatureSize {
		return false, Rejected
	}
	fp := fingerprintOf(pub, sig, key, value, stamp)
	if r.verified.has(fp) {
		return true, Reused
	}
	if !r.check(pub, Digest(key, value, stamp), sig) {
		return false, Checked
	}
	r.verified.add(fp)
	return true, Checked
}

// VerifyEntry is Judge without the cost.
func (r *Registry) VerifyEntry(key string, value []byte, stamp ts.Stamp, sig []byte) bool {
	ok, _ := r.Judge(key, value, stamp, sig)
	return ok
}

// SignEntry is Sign for a writer that also reads through this registry: it
// returns the signature and, iff the registry's key for the stamp's writer is
// byte-equal to priv's public half, notes the tuple as verified, so that
// reading one's own write back costs no signature check. The registry makes
// the signature itself and never takes a caller's word for one. priv must be
// a well-formed key (its public half derived from its seed; register's
// client constructor checks that), or its signatures verify under no key.
func (r *Registry) SignEntry(priv ed25519.PrivateKey, key string, value []byte, stamp ts.Stamp) []byte {
	sig := Sign(priv, key, value, stamp)
	if pub, ok := r.Lookup(stamp.Writer); ok && bytes.Equal(pub, priv[ed25519.SeedSize:]) {
		r.verified.add(fingerprintOf(pub, sig, key, value, stamp))
	}
	return sig
}

// Len returns the number of registered writers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}
