package register

import (
	"context"
	"crypto/ed25519"
	"math/rand"
	"strings"
	"testing"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/sv"
	"pqs/internal/ts"
)

// TestNewClientRejectsUnverifiableWriter: a writer whose signing key is not
// the one its own registry vouches for — or is no key at all — is refused at
// construction, instead of writing values no reader will ever accept.
func TestNewClientRejectsUnverifiableWriter(t *testing.T) {
	c := newCluster(t, 3)
	sys := majoritySystem(t, 3)
	mine, err := sv.GenerateKey(&zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := sv.GenerateKey(&zeroReader{b: 100})
	if err != nil {
		t.Fatal(err)
	}
	registry := func(writer uint32, pub ed25519.PublicKey) *sv.Registry {
		reg := sv.NewRegistry()
		if pub != nil {
			if err := reg.Add(writer, pub); err != nil {
				t.Fatal(err)
			}
		}
		return reg
	}
	// A private key whose public half was swapped for someone else's: its
	// signatures verify under neither key.
	spliced := append(append(ed25519.PrivateKey(nil), mine.Private[:ed25519.SeedSize]...), other.Public...)

	cases := []struct {
		name    string
		mode    Mode
		signer  ed25519.PrivateKey
		reg     *sv.Registry
		clock   *ts.Clock
		wantErr string
	}{
		{"signer is the registered key", Dissemination, mine.Private, registry(1, mine.Public), ts.NewClock(1), ""},
		{"registry does not know the writer", Dissemination, mine.Private, registry(2, other.Public), ts.NewClock(1), ""},
		{"empty registry", Dissemination, mine.Private, registry(0, nil), ts.NewClock(1), ""},
		{"reader with a key and no clock", Dissemination, mine.Private, registry(1, other.Public), nil, ""},
		{"benign signer without a registry", Benign, mine.Private, nil, ts.NewClock(1), ""},
		{"registry holds another key for the writer", Dissemination, mine.Private, registry(1, other.Public), ts.NewClock(1), "different public key for writer 1"},
		{"benign signer, mismatched registry", Benign, mine.Private, registry(1, other.Public), ts.NewClock(1), "different public key for writer 1"},
		{"truncated signer", Dissemination, mine.Private[:ed25519.SeedSize], registry(1, mine.Public), ts.NewClock(1), "not a well-formed"},
		{"spliced signer matching the registry", Dissemination, spliced, registry(1, other.Public), ts.NewClock(1), "not a well-formed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cells := range []int{1, 3} {
				_, err := NewClient(Options{
					System: sys, Mode: tc.mode, Transport: c.net, Rand: rand.New(rand.NewSource(1)),
					Clock: tc.clock, Signer: tc.signer, Registry: tc.reg, Cells: cells,
				})
				switch {
				case tc.wantErr == "" && err != nil:
					t.Errorf("cells=%d: %v", cells, err)
				case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
					t.Errorf("cells=%d: error %v, want one mentioning %q", cells, err, tc.wantErr)
				}
			}
		})
	}
}

// TestSigStatsCountChecksAndReuse walks AccessStats.SigChecks / SigReused
// through the three things a dissemination read can meet: its own client's
// write (signed here, never checked), another writer's value (checked once,
// then reused), and a forger answering under a well-formed signature
// (checked on every read, for ever).
func TestSigStatsCountChecksAndReuse(t *testing.T) {
	mine, err := sv.GenerateKey(&zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := sv.GenerateKey(&zeroReader{b: 100})
	if err != nil {
		t.Fatal(err)
	}
	reg := sv.NewRegistry()
	for writer, pub := range map[uint32]ed25519.PublicKey{1: mine.Public, 2: theirs.Public} {
		if err := reg.Add(writer, pub); err != nil {
			t.Fatal(err)
		}
	}
	const n = 5
	c := newCluster(t, n)
	full, err := quorum.NewUniform(n, n)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(Options{
		System: full, Mode: Dissemination, Transport: c.net, Rand: rand.New(rand.NewSource(1)),
		Clock: ts.NewClock(1), Signer: mine.Private, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	expect := func(step string, checks, reused uint64) {
		t.Helper()
		if st := cl.Stats(); st.SigChecks != checks || st.SigReused != reused {
			t.Fatalf("%s: SigChecks %d, SigReused %d; want %d, %d", step, st.SigChecks, st.SigReused, checks, reused)
		}
	}
	read := func(key, want string, discarded int) {
		t.Helper()
		rr, err := cl.Read(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Found || string(rr.Value) != want || rr.Discarded != discarded {
			t.Fatalf("read %q: found=%v value=%q discarded=%d; want %q, %d discarded", key, rr.Found, rr.Value, rr.Discarded, want, discarded)
		}
	}

	if _, err := cl.Write(ctx, "own", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	read("own", "mine", 0)
	read("own", "mine", 0)
	expect("own write read back twice", 0, 2)

	stamp := ts.Stamp{Counter: 9, Writer: 2}
	sig := sv.Sign(theirs.Private, "other", []byte("theirs"), stamp)
	for _, rep := range c.reps {
		rep.Store().Apply("other", replica.Entry{Value: []byte("theirs"), Stamp: stamp, Sig: sig})
	}
	read("other", "theirs", 0)
	expect("another writer's value, first read", 1, 2)
	read("other", "theirs", 0)
	expect("another writer's value, second read", 1, 3)

	// One server turns forger: the genuine pair of "other", one version up,
	// under a signature of the right length.
	garbage := append([]byte(nil), sig...)
	garbage[0] ^= 1
	c.reps[0].SetBehavior(replica.Forger{Value: []byte("theirs"), Stamp: ts.Stamp{Counter: 10, Writer: 2}, Sig: garbage})
	for i := uint64(1); i <= 3; i++ {
		read("other", "theirs", 1)
		expect("forger present", 1+i, 3+i)
	}
}
