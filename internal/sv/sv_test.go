package sv

import (
	"bytes"
	"math/rand"
	"testing"

	"pqs/internal/ts"
)

// detRand is a deterministic entropy source for tests.
type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

func testKey(t testing.TB, seed int64) KeyPair {
	t.Helper()
	kp, err := GenerateKey(detRand{rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func mustAdd(t testing.TB, reg *Registry, writer uint32, pub []byte) {
	t.Helper()
	if err := reg.Add(writer, pub); err != nil {
		t.Fatal(err)
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	kp := testKey(t, 1)
	stamp := ts.Stamp{Counter: 42, Writer: 7}
	sig := Sign(kp.Private, "x", []byte("value"), stamp)
	if !Verify(kp.Public, "x", []byte("value"), stamp, sig) {
		t.Error("valid signature rejected")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	kp := testKey(t, 2)
	stamp := ts.Stamp{Counter: 42, Writer: 7}
	sig := Sign(kp.Private, "x", []byte("value"), stamp)
	if Verify(kp.Public, "y", []byte("value"), stamp, sig) {
		t.Error("altered key accepted")
	}
	if Verify(kp.Public, "x", []byte("VALUE"), stamp, sig) {
		t.Error("altered value accepted")
	}
	if Verify(kp.Public, "x", []byte("value"), ts.Stamp{Counter: 43, Writer: 7}, sig) {
		t.Error("altered counter accepted")
	}
	if Verify(kp.Public, "x", []byte("value"), ts.Stamp{Counter: 42, Writer: 8}, sig) {
		t.Error("altered writer accepted")
	}
	bad := append([]byte(nil), sig...)
	bad[0] ^= 0xff
	if Verify(kp.Public, "x", []byte("value"), stamp, bad) {
		t.Error("corrupted signature accepted")
	}
	other := testKey(t, 3)
	if Verify(other.Public, "x", []byte("value"), stamp, sig) {
		t.Error("wrong key accepted")
	}
	if Verify(nil, "x", []byte("value"), stamp, sig) {
		t.Error("nil key accepted")
	}
}

// TestVerifyWrongLengthSigIsFree pins the order of Verify's checks: a forged
// signature of the wrong length is rejected before the digest — a copy of
// the whole value — is built, so it costs nothing however large the value.
func TestVerifyWrongLengthSigIsFree(t *testing.T) {
	kp := testKey(t, 8)
	stamp := ts.Stamp{Counter: 1, Writer: 7}
	value := make([]byte, 16<<10)
	for _, sig := range [][]byte{nil, []byte("not a real signature"), make([]byte, 65)} {
		if Verify(kp.Public, "x", value, stamp, sig) {
			t.Errorf("%d-byte signature accepted", len(sig))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			Verify(kp.Public, "x", value, stamp, sig)
		}); allocs != 0 {
			t.Errorf("%d-byte signature: %v allocs per Verify, want 0", len(sig), allocs)
		}
	}
}

func TestDigestInjective(t *testing.T) {
	// The classic length-extension confusion: ("ab", "c") vs ("a", "bc")
	// must produce different digests.
	s := ts.Stamp{Counter: 1, Writer: 1}
	if bytes.Equal(Digest("ab", []byte("c"), s), Digest("a", []byte("bc"), s)) {
		t.Error("digest not injective across key/value boundary")
	}
	if bytes.Equal(Digest("", []byte("ab"), s), Digest("ab", nil, s)) {
		t.Error("digest not injective for empty fields")
	}
	s2 := ts.Stamp{Counter: 1, Writer: 2}
	if bytes.Equal(Digest("a", []byte("b"), s), Digest("a", []byte("b"), s2)) {
		t.Error("digest ignores writer")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if reg.Len() != 0 {
		t.Error("new registry not empty")
	}
	kp := testKey(t, 4)
	mustAdd(t, reg, 9, kp.Public)
	if reg.Len() != 1 {
		t.Error("Len after Add")
	}
	got, ok := reg.Lookup(9)
	if !ok || !bytes.Equal(got, kp.Public) {
		t.Error("Lookup failed")
	}
	if _, ok := reg.Lookup(10); ok {
		t.Error("Lookup of unknown writer succeeded")
	}
	for _, bad := range [][]byte{nil, {}, kp.Public[:31], append(append([]byte(nil), kp.Public...), 0)} {
		if err := reg.Add(11, bad); err == nil {
			t.Errorf("Add accepted a %d-byte public key", len(bad))
		}
	}
	if _, ok := reg.Lookup(11); ok || reg.Len() != 1 {
		t.Error("a refused key was registered")
	}

	stamp := ts.Stamp{Counter: 5, Writer: 9}
	sig := Sign(kp.Private, "k", []byte("v"), stamp)
	if !reg.VerifyEntry("k", []byte("v"), stamp, sig) {
		t.Error("registry verification failed")
	}
	// Same signature presented under an unregistered writer id fails.
	badStamp := ts.Stamp{Counter: 5, Writer: 10}
	if reg.VerifyEntry("k", []byte("v"), badStamp, sig) {
		t.Error("unknown writer accepted")
	}
	// A forged entry claiming writer 9 without the private key fails.
	forger := testKey(t, 5)
	forgedSig := Sign(forger.Private, "k", []byte("evil"), stamp)
	if reg.VerifyEntry("k", []byte("evil"), stamp, forgedSig) {
		t.Error("forged entry accepted: dissemination assumption would be broken")
	}
}

func TestRegistryKeyIsolation(t *testing.T) {
	// The registry must not alias the caller's key slice.
	reg := NewRegistry()
	kp := testKey(t, 6)
	pub := append([]byte(nil), kp.Public...)
	mustAdd(t, reg, 1, pub)
	pub[0] ^= 0xff
	got, _ := reg.Lookup(1)
	if !bytes.Equal(got, kp.Public) {
		t.Error("registry aliased caller's slice")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	kp := testKey(t, 7)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if err := reg.Add(uint32(i%16), kp.Public); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		reg.Lookup(uint32(i % 16))
		reg.Len()
	}
	<-done
}
