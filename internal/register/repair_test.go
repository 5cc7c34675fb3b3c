package register

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"testing"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/sv"
	"pqs/internal/ts"
	"pqs/internal/wire"
)

func storeEntry(v string, counter uint64) replica.Entry {
	return replica.Entry{Value: []byte(v), Stamp: ts.Stamp{Counter: counter, Writer: 1}}
}

func storeEntrySig(v []byte, stamp ts.Stamp, sig []byte) replica.Entry {
	return replica.Entry{Value: v, Stamp: stamp, Sig: sig}
}

func TestReadRepairHealsStaleMembers(t *testing.T) {
	c := newCluster(t, 10)
	// Write to servers 0..4 only by applying entries directly, simulating a
	// write quorum the read quorum only partially overlaps.
	for i := 0; i < 5; i++ {
		c.reps[i].Store().Apply("x", storeEntry("fresh", 7))
	}
	full, err := quorum.NewUniform(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(Options{
		System: full, Mode: Benign, Transport: c.net,
		Rand:   rand.New(rand.NewSource(1)),
		Tuning: config.Tuning{ReadRepair: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := cl.Read(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Found || string(rr.Value) != "fresh" {
		t.Fatalf("read %+v", rr)
	}
	if rr.Repaired != 5 {
		t.Errorf("repaired %d members, want 5", rr.Repaired)
	}
	// Every server now holds the value.
	for i, rep := range c.reps {
		e, ok := rep.Store().Get("x")
		if !ok || string(e.Value) != "fresh" {
			t.Errorf("server %d not repaired: %+v", i, e)
		}
	}
}

func TestReadRepairPreservesSignatures(t *testing.T) {
	kp, err := sv.GenerateKey(&zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	reg := sv.NewRegistry()
	if err := reg.Add(1, kp.Public); err != nil {
		t.Fatal(err)
	}

	c := newCluster(t, 6)
	stamp := ts.Stamp{Counter: 3, Writer: 1}
	sig := sv.Sign(kp.Private, "x", []byte("signed"), stamp)
	for i := 0; i < 3; i++ {
		c.reps[i].Store().Apply("x", storeEntrySig([]byte("signed"), stamp, sig))
	}
	full, err := quorum.NewUniform(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(Options{
		System: full, Mode: Dissemination, Transport: c.net,
		Rand:     rand.New(rand.NewSource(2)),
		Registry: reg,
		Tuning:   config.Tuning{ReadRepair: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(context.Background(), "x"); err != nil {
		t.Fatal(err)
	}
	// Repaired copies carry the original signature and verify.
	for i, rep := range c.reps {
		e, ok := rep.Store().Get("x")
		if !ok {
			t.Fatalf("server %d missing entry", i)
		}
		if !reg.VerifyEntry("x", e.Value, e.Stamp, e.Sig) {
			t.Errorf("server %d holds unverifiable repaired entry", i)
		}
	}
}

func TestReadRepairRejectedInMaskingMode(t *testing.T) {
	c := newCluster(t, 4)
	full, err := quorum.NewUniform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewClient(Options{
		System: full, Mode: Masking, K: 2, Transport: c.net,
		Rand:   rand.New(rand.NewSource(3)),
		Tuning: config.Tuning{ReadRepair: true},
	})
	if err == nil {
		t.Fatal("masking + read repair must be rejected")
	}
}

func TestReadRepairNoopWhenNothingFound(t *testing.T) {
	c := newCluster(t, 4)
	full, err := quorum.NewUniform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(Options{
		System: full, Mode: Benign, Transport: c.net,
		Rand:   rand.New(rand.NewSource(4)),
		Tuning: config.Tuning{ReadRepair: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := cl.Read(context.Background(), "missing")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Found || rr.Repaired != 0 {
		t.Errorf("unexpected repair on missing key: %+v", rr)
	}
	for i, rep := range c.reps {
		if rep.Store().Len() != 0 {
			t.Errorf("server %d store polluted", i)
		}
	}
}

// garbleSig is a Byzantine replica that stores what it is told and answers
// reads with the genuine pair — under a signature that does not verify.
type garbleSig struct{}

func (garbleSig) OnRead(_ string, correct wire.ReadReply) (wire.ReadReply, error) {
	correct.Sig = bytes.Repeat([]byte{0xAB}, ed25519.SignatureSize)
	return correct, nil
}

func (garbleSig) OnWrite(wire.WriteRequest) (bool, error) { return true, nil }

// TestReadRepairSpreadsOnlyTheVerifiedSignature: replicas do not verify
// writes, so repair must push the signature of the reply that verified and
// not that of another reply naming the same pair. Fifty times over, a new
// version lands on a correct server and on a garbleSig one, and a read over
// the whole universe repairs the eight stale servers; every stored copy
// must still verify afterwards. (Taking the signature from whichever
// matching reply came first spread the garbage about every other read, and
// every later reader then discarded those servers' replies.)
func TestReadRepairSpreadsOnlyTheVerifiedSignature(t *testing.T) {
	s := newSigner(t)
	const n = 10
	c := newCluster(t, n)
	c.reps[0].SetBehavior(garbleSig{})
	full, err := quorum.NewUniform(n, n)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(Options{
		System: full, Mode: Dissemination, Transport: c.net,
		Rand:     rand.New(rand.NewSource(6)),
		Registry: s.reg,
		Tuning:   config.Tuning{ReadRepair: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		value := []byte(fmt.Sprintf("v%d", i))
		stamp := ts.Stamp{Counter: uint64(i), Writer: 1}
		sig := sv.Sign(s.kp.Private, "x", value, stamp)
		c.reps[0].Store().Apply("x", storeEntrySig(value, stamp, sig))
		c.reps[1].Store().Apply("x", storeEntrySig(value, stamp, sig))

		rr, err := cl.Read(context.Background(), "x")
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Found || rr.Stamp != stamp || rr.Repaired != n-2 {
			t.Fatalf("read %d: %+v", i, rr)
		}
		for id, rep := range c.reps {
			e, ok := rep.Store().Get("x")
			if !ok || e.Stamp != stamp {
				t.Fatalf("read %d: server %d not repaired: %+v", i, id, e)
			}
			if !s.reg.VerifyEntry("x", e.Value, e.Stamp, e.Sig) {
				t.Fatalf("read %d: server %d stores an unverifiable copy of the accepted pair", i, id)
			}
		}
	}
}
