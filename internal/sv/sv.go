// Package sv implements self-verifying data for (b, ε)-dissemination quorum
// systems (Section 4 of the paper): data that faulty servers "can suppress
// but not undetectably alter". Writers sign (key, value, timestamp) tuples
// with ed25519; readers verify signatures against a registry of authorized
// writer keys, so any fabricated or altered value is rejected and a faulty
// server is reduced to replaying old-but-genuine values, which timestamps
// already order out.
package sv

import (
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

// Digest produces the canonical byte string that is signed for a
// (key, value, stamp) tuple. Fields are length-prefixed so that no two
// distinct tuples share an encoding.
func Digest(key string, value []byte, stamp ts.Stamp) []byte {
	buf := make([]byte, 0, 8+len(key)+8+len(value)+12)
	var lenb [8]byte
	binary.BigEndian.PutUint64(lenb[:], uint64(len(key)))
	buf = append(buf, lenb[:]...)
	buf = append(buf, key...)
	binary.BigEndian.PutUint64(lenb[:], uint64(len(value)))
	buf = append(buf, lenb[:]...)
	buf = append(buf, value...)
	binary.BigEndian.PutUint64(lenb[:], stamp.Counter)
	buf = append(buf, lenb[:]...)
	var wb [4]byte
	binary.BigEndian.PutUint32(wb[:], stamp.Writer)
	buf = append(buf, wb[:]...)
	return buf
}

// Sign returns the writer's signature over the tuple.
func Sign(priv ed25519.PrivateKey, key string, value []byte, stamp ts.Stamp) []byte {
	return ed25519.Sign(priv, Digest(key, value, stamp))
}

// Verify reports whether sig is a valid signature over the tuple under pub.
// A key or signature of the wrong length is rejected before the digest is
// built, so such a forgery costs no copy of the value it rides on.
func Verify(pub ed25519.PublicKey, key string, value []byte, stamp ts.Stamp, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, Digest(key, value, stamp), sig)
}

// Registry maps writer ids to their public keys. Readers consult it to
// decide which replies are verifiable (step 3 of the Section 4 read
// protocol). Registry is safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	keys map[uint32]ed25519.PublicKey
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[uint32]ed25519.PublicKey)}
}

// Add registers (or replaces) the public key for a writer.
func (r *Registry) Add(writer uint32, pub ed25519.PublicKey) {
	cp := make(ed25519.PublicKey, len(pub))
	copy(cp, pub)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[writer] = cp
}

// Lookup returns the public key for a writer, if registered.
func (r *Registry) Lookup(writer uint32) (ed25519.PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.keys[writer]
	return pub, ok
}

// VerifyEntry checks a reply tuple against the registered key of the writer
// named in the stamp. Unknown writers are not verifiable.
func (r *Registry) VerifyEntry(key string, value []byte, stamp ts.Stamp, sig []byte) bool {
	pub, ok := r.Lookup(stamp.Writer)
	if !ok {
		return false
	}
	return Verify(pub, key, value, stamp, sig)
}

// Len returns the number of registered writers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}
