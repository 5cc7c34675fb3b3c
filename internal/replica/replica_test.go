package replica

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"pqs/internal/ts"
	"pqs/internal/wire"
)

func TestStoreApplyLastWriterWins(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("x"); ok {
		t.Error("empty store returned a value")
	}
	if !s.Apply("x", Entry{Value: []byte("v1"), Stamp: ts.Stamp{Counter: 1}}) {
		t.Error("first apply rejected")
	}
	if !s.Apply("x", Entry{Value: []byte("v2"), Stamp: ts.Stamp{Counter: 2}}) {
		t.Error("newer apply rejected")
	}
	// Older or equal stamps must not regress the value.
	if s.Apply("x", Entry{Value: []byte("old"), Stamp: ts.Stamp{Counter: 1}}) {
		t.Error("older apply accepted")
	}
	if s.Apply("x", Entry{Value: []byte("dup"), Stamp: ts.Stamp{Counter: 2}}) {
		t.Error("equal-stamp apply accepted")
	}
	e, ok := s.Get("x")
	if !ok || string(e.Value) != "v2" {
		t.Errorf("final entry %+v", e)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreSnapshotAndKeys(t *testing.T) {
	s := NewStore()
	s.Apply("a", Entry{Value: []byte("1"), Stamp: ts.Stamp{Counter: 1}})
	s.Apply("b", Entry{Value: []byte("2"), Stamp: ts.Stamp{Counter: 1}})
	snap := s.Snapshot()
	if len(snap) != 2 || string(snap["a"].Value) != "1" {
		t.Errorf("snapshot %+v", snap)
	}
	// Mutating the snapshot must not affect the store.
	snap["a"] = Entry{Value: []byte("oops"), Stamp: ts.Stamp{Counter: 99}}
	if e, _ := s.Get("a"); string(e.Value) != "1" {
		t.Error("snapshot aliases store")
	}
	if got := s.Keys(); len(got) != 2 {
		t.Errorf("Keys = %v", got)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 200; i++ {
				s.Apply("x", Entry{Value: []byte{byte(g)}, Stamp: ts.Stamp{Counter: uint64(i), Writer: uint32(g)}})
				s.Get("x")
			}
		}(g)
	}
	wg.Wait()
	e, ok := s.Get("x")
	if !ok || e.Stamp.Counter != 200 {
		t.Errorf("final stamp %v", e.Stamp)
	}
}

func write(t *testing.T, r *Replica, key, val string, c uint64) wire.WriteReply {
	t.Helper()
	resp, err := r.Handle(context.Background(), wire.WriteRequest{
		Key: key, Value: []byte(val), Stamp: ts.Stamp{Counter: c, Writer: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.(wire.WriteReply)
}

func read(t *testing.T, r *Replica, key string) (wire.ReadReply, error) {
	t.Helper()
	resp, err := r.Handle(context.Background(), wire.ReadRequest{Key: key})
	if err != nil {
		return wire.ReadReply{}, err
	}
	return resp.(wire.ReadReply), nil
}

func TestReplicaReadWrite(t *testing.T) {
	r := New(3)
	if r.ID() != 3 {
		t.Errorf("ID = %d", r.ID())
	}
	if rep := write(t, r, "x", "hello", 1); !rep.Stored {
		t.Error("write not stored")
	}
	got, err := read(t, r, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found || string(got.Value) != "hello" || got.Stamp.Counter != 1 {
		t.Errorf("read = %+v", got)
	}
	// Reading a missing key reports Found=false, no error.
	got, err = read(t, r, "missing")
	if err != nil || got.Found {
		t.Errorf("missing key: %+v, %v", got, err)
	}
	// Stale write is acknowledged but not stored.
	write(t, r, "x", "new", 5)
	if rep := write(t, r, "x", "older", 2); rep.Stored {
		t.Error("older write stored")
	}
}

func TestReplicaPingAndUnknown(t *testing.T) {
	r := New(7)
	resp, err := r.Handle(context.Background(), wire.PingRequest{})
	if err != nil || resp.(wire.PingReply).ServerID != 7 {
		t.Errorf("ping: %+v, %v", resp, err)
	}
	if _, err := r.Handle(context.Background(), struct{ X int }{1}); err == nil {
		t.Error("unknown request type accepted")
	}
}

func TestForgerBehavior(t *testing.T) {
	r := New(0)
	write(t, r, "x", "genuine", 1)
	forged := Forger{Value: []byte("evil"), Stamp: ts.Stamp{Counter: 1 << 40}}
	r.SetBehavior(forged)
	got, err := read(t, r, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != "evil" || got.Stamp.Counter != 1<<40 {
		t.Errorf("forger read = %+v", got)
	}
	// Forger discards writes but still acknowledges.
	rep := write(t, r, "x", "update", 9)
	if rep.Stored {
		t.Error("forger claimed to store")
	}
	r.SetBehavior(Correct{})
	got, _ = read(t, r, "x")
	if string(got.Value) != "genuine" {
		t.Errorf("store was corrupted by forger: %+v", got)
	}
}

// TestBadSigEchoBehavior: the echo serves the genuine newest (value, stamp)
// of each key, never under the signature that came with it.
func TestBadSigEchoBehavior(t *testing.T) {
	sigOf := func(c uint64) []byte { return bytes.Repeat([]byte{byte(c)}, ed25519.SignatureSize) }
	put := func(r *Replica, key, val string, c uint64) {
		t.Helper()
		req := wire.WriteRequest{Key: key, Value: []byte(val), Stamp: ts.Stamp{Counter: c, Writer: 1}, Sig: sigOf(c)}
		if resp, err := r.Handle(context.Background(), req); err != nil || !resp.(wire.WriteReply).Stored {
			t.Fatalf("write %s@%d: %v, %v", key, c, resp, err)
		}
	}

	garbage := New(0)
	garbage.SetBehavior(&BadSigEcho{Bit: 9})
	if got, err := read(t, garbage, "x"); err != nil || got.Found {
		t.Errorf("read of a key never written = %+v, %v", got, err)
	}
	put(garbage, "x", "v1", 1)
	put(garbage, "x", "v2", 2)
	got, _ := read(t, garbage, "x")
	want := sigOf(2)
	want[1] ^= 1 << 1 // bit 9
	if string(got.Value) != "v2" || got.Stamp.Counter != 2 || !bytes.Equal(got.Sig, want) {
		t.Errorf("garbage echo read = %+v, want v2@2 under the genuine signature with bit 9 flipped", got)
	}

	replay := New(1)
	replay.SetBehavior(&BadSigEcho{Bit: 9, Replay: true})
	put(replay, "x", "v1", 1)
	if got, _ := read(t, replay, "x"); string(got.Value) != "v1" || bytes.Equal(got.Sig, sigOf(1)) || len(got.Sig) != ed25519.SignatureSize {
		t.Errorf("replay echo with no older version read = %+v, want v1@1 under a flipped signature", got)
	}
	put(replay, "x", "v2", 2)
	if got, _ := read(t, replay, "x"); string(got.Value) != "v2" || got.Stamp.Counter != 2 || !bytes.Equal(got.Sig, sigOf(1)) {
		t.Errorf("replay echo at an even stamp read = %+v, want v2@2 under v1's signature", got)
	}
	put(replay, "x", "v3", 3)
	if got, _ := read(t, replay, "x"); string(got.Value) != "v2" || got.Stamp.Counter != 3 || !bytes.Equal(got.Sig, sigOf(2)) {
		t.Errorf("replay echo at an odd stamp read = %+v, want v2's value and signature under stamp 3", got)
	}
	// An old write arriving late changes nothing.
	if _, err := replay.Handle(context.Background(), wire.WriteRequest{Key: "x", Value: []byte("late"), Stamp: ts.Stamp{Counter: 1, Writer: 1}, Sig: sigOf(1)}); err != nil {
		t.Fatal(err)
	}
	if got, _ := read(t, replay, "x"); got.Stamp.Counter != 3 || !bytes.Equal(got.Sig, sigOf(2)) {
		t.Errorf("after a late old write the replay echo read = %+v", got)
	}
	// What it stores is what a correct server would.
	if e, ok := replay.Store().Get("x"); !ok || string(e.Value) != "v3" || !bytes.Equal(e.Sig, sigOf(3)) {
		t.Errorf("store holds %+v", e)
	}
}

func TestStaleBehavior(t *testing.T) {
	r := New(0)
	write(t, r, "x", "v1", 1)
	r.SetBehavior(Stale{})
	write(t, r, "x", "v2", 2)
	got, _ := read(t, r, "x")
	if string(got.Value) != "v1" {
		t.Errorf("stale replica should still serve v1, got %+v", got)
	}
}

func TestSilentBehavior(t *testing.T) {
	r := New(0)
	write(t, r, "x", "v1", 1)
	r.SetBehavior(Silent{})
	if _, err := read(t, r, "x"); !errors.Is(err, ErrSuppressed) {
		t.Errorf("silent read err = %v", err)
	}
	if _, err := r.Handle(context.Background(), wire.WriteRequest{Key: "x"}); !errors.Is(err, ErrSuppressed) {
		t.Errorf("silent write err = %v", err)
	}
	r.SetBehavior(nil) // nil resets to correct
	if _, err := read(t, r, "x"); err != nil {
		t.Errorf("after reset: %v", err)
	}
}

func TestGossipMerge(t *testing.T) {
	a, b := New(0), New(1)
	a.Store().Apply("x", Entry{Value: []byte("newer"), Stamp: ts.Stamp{Counter: 5, Writer: 1}})
	a.Store().Apply("only-a", Entry{Value: []byte("A"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})
	b.Store().Apply("x", Entry{Value: []byte("older"), Stamp: ts.Stamp{Counter: 2, Writer: 1}})
	b.Store().Apply("only-b", Entry{Value: []byte("B"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})

	// a pushes its state to b; b adopts newer entries and returns what a lacks.
	var push wire.GossipRequest
	for k, e := range a.Store().Snapshot() {
		push.Entries = append(push.Entries, wire.Item{Key: k, Value: e.Value, Stamp: e.Stamp, Sig: e.Sig})
	}
	resp, err := b.Handle(context.Background(), push)
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := b.Store().Get("x"); string(e.Value) != "newer" {
		t.Errorf("b did not adopt newer x: %+v", e)
	}
	if e, _ := b.Store().Get("only-a"); string(e.Value) != "A" {
		t.Errorf("b did not adopt only-a: %+v", e)
	}
	reply := resp.(wire.GossipReply)
	found := false
	for _, item := range reply.Entries {
		if item.Key == "x" && string(item.Value) == "older" {
			t.Error("b returned dominated entry")
		}
		if item.Key == "only-b" {
			found = true
		}
	}
	if !found {
		t.Error("b did not return only-b")
	}
}

// TestGossipReplyOrder: a gossip reply lists entries in adoption order, so
// the same merged state gives the same bytes every time it is asked, and
// whichever way the store happens to be laid out (replicas whose tables were
// built under differently seeded hashes).
func TestGossipReplyOrder(t *testing.T) {
	replyBytes := func(r *Replica, m wire.GossipRequest) []byte {
		return r.handleGossip(m, nil).AppendTo(nil)
	}
	var push wire.GossipRequest
	reps := []*Replica{New(0), New(1), New(2)}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", i*7%200)
		e := Entry{Value: []byte(k), Stamp: ts.Stamp{Counter: uint64(i%5 + 1), Writer: 1}}
		for j, r := range reps {
			r.store.apply(k, e, modelHash[j%2](k)) // reps[1] under the other seed
		}
		if i%3 == 0 {
			push.Entries = append(push.Entries, wire.Item{Key: k, Value: e.Value, Stamp: ts.Stamp{Counter: uint64(i % 7), Writer: 1}})
		}
	}
	all := replyBytes(reps[0], wire.GossipRequest{})
	if len(all) < 200 || !bytes.Equal(all, replyBytes(reps[0], wire.GossipRequest{})) {
		t.Error("one replica, asked twice, ordered its reply differently")
	}
	if !bytes.Equal(all, replyBytes(reps[1], wire.GossipRequest{})) {
		t.Error("replicas laid out under different hash seeds ordered their replies differently")
	}
	// The same holds after a merge, with the offered entries filtered out.
	merged := replyBytes(reps[0], push)
	if len(merged) == 0 || len(merged) >= len(all) || !bytes.Equal(merged, replyBytes(reps[2], push)) {
		t.Errorf("two replicas merging one request answered differently (%d and %d bytes of %d)",
			len(merged), len(replyBytes(reps[2], push)), len(all))
	}
}

func TestGossipVerifierBlocksForgeries(t *testing.T) {
	r := New(0)
	r.Store().Apply("x", Entry{Value: []byte("good"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})
	// Verifier accepts only entries whose sig equals "valid".
	r.SetVerifier(func(_ string, _ []byte, _ ts.Stamp, sig []byte) bool {
		return string(sig) == "valid"
	})
	push := wire.GossipRequest{Entries: []wire.Item{
		{Key: "x", Value: []byte("forged"), Stamp: ts.Stamp{Counter: 99, Writer: 1}, Sig: []byte("bogus")},
		{Key: "y", Value: []byte("legit"), Stamp: ts.Stamp{Counter: 1, Writer: 1}, Sig: []byte("valid")},
	}}
	if _, err := r.Handle(context.Background(), push); err != nil {
		t.Fatal(err)
	}
	if e, _ := r.Store().Get("x"); string(e.Value) != "good" {
		t.Errorf("forged entry accepted: %+v", e)
	}
	if e, ok := r.Store().Get("y"); !ok || string(e.Value) != "legit" {
		t.Errorf("valid entry rejected: %+v", e)
	}
}

// foreignBehavior is a Behavior defined outside the package's own set.
type foreignBehavior struct{ Correct }

// TestTryHandleAcceptsOnlyWhatNeverWaits: TryHandle answers exactly as
// Handle does under the package's own non-waiting behaviours, and declines
// — touching nothing — under Delayed (which sleeps) and under any Behavior
// it does not know (which might).
func TestTryHandleAcceptsOnlyWhatNeverWaits(t *testing.T) {
	ctx := context.Background()
	write := wire.WriteRequest{Key: "k", Value: []byte("v"), Stamp: ts.Stamp{Counter: 1, Writer: 1}}
	read := wire.ReadRequest{Key: "k"}
	for _, mk := range []func() Behavior{
		func() Behavior { return Correct{} },
		func() Behavior { return Forger{Value: []byte("f"), Stamp: ts.Stamp{Counter: 9}} },
		func() Behavior { return Stale{} },
		func() Behavior { return Silent{} },
		func() Behavior { return &BadSigEcho{} },
	} {
		viaHandle, viaTry := New(0), New(0)
		viaHandle.SetBehavior(mk())
		b := mk()
		viaTry.SetBehavior(b)
		for _, req := range []any{write, read, wire.PingRequest{}, "unknown"} {
			want, wantErr := viaHandle.Handle(ctx, req)
			got, ok, err := viaTry.TryHandle(ctx, req)
			if !ok {
				t.Fatalf("%T declined %T", b, req)
			}
			if (err == nil) != (wantErr == nil) || !equalReplies(got, want) {
				t.Errorf("%T, %T: TryHandle = %v, %v; Handle = %v, %v", b, req, got, err, want, wantErr)
			}
		}
		if h, tr := viaHandle.Store().Len(), viaTry.Store().Len(); h != tr {
			t.Errorf("%T: stores hold %d and %d entries", b, h, tr)
		}
	}
	for _, b := range []Behavior{Delayed{}, Delayed{Inner: Silent{}}, foreignBehavior{}, &foreignBehavior{}} {
		r := New(0)
		r.SetBehavior(b)
		if _, ok, err := r.TryHandle(ctx, write); ok || err != nil {
			t.Errorf("%T: TryHandle ok %v, err %v; want a decline", b, ok, err)
		}
		if r.Store().Len() != 0 {
			t.Errorf("%T: a declined write was applied", b)
		}
	}
}

// TestReplicaConcurrentSettersLoseNothing: SetBehavior and SetVerifier each
// republish the whole {behaviour, verifier} pair, so two of them racing must
// not write back each other's stale half. Each goroutine owns one field and
// must find, before every one of its 10 000 sets, the value it set last.
// Afterwards the capability rule still holds, and changing the behaviour
// has kept the verifier.
func TestReplicaConcurrentSettersLoseNothing(t *testing.T) {
	const sets = 10000
	ctx := context.Background()
	r := New(0)
	// verifierNo(i) accepts exactly the key that spells i.
	verifierNo := func(i int) Verifier {
		return func(key string, _ []byte, _ ts.Stamp, _ []byte) bool { return key == strconv.Itoa(i) }
	}
	holdsVerifier := func(i int) bool {
		_, v := r.current()
		return v != nil && v(strconv.Itoa(i), nil, ts.Stamp{}, nil)
	}
	var setters sync.WaitGroup
	setters.Add(2)
	go func() {
		defer setters.Done()
		r.SetBehavior(Forger{})
		for i := 1; i <= sets; i++ {
			if f, ok := r.Behavior().(Forger); !ok || f.Stamp.Counter != uint64(i-1) {
				t.Errorf("behaviour %d lost to a concurrent SetVerifier: holds %+v", i-1, r.Behavior())
				return
			}
			r.SetBehavior(Forger{Stamp: ts.Stamp{Counter: uint64(i)}})
		}
	}()
	go func() {
		defer setters.Done()
		r.SetVerifier(verifierNo(0))
		for i := 1; i <= sets; i++ {
			if !holdsVerifier(i - 1) {
				t.Errorf("verifier %d lost to a concurrent SetBehavior", i-1)
				return
			}
			r.SetVerifier(verifierNo(i))
		}
	}()
	setters.Wait()
	if f, ok := r.Behavior().(Forger); !ok || f.Stamp.Counter != sets || !holdsVerifier(sets) {
		t.Errorf("after the race: behaviour %+v, last verifier held %v", r.Behavior(), holdsVerifier(sets))
	}
	for _, b := range []Behavior{Delayed{}, foreignBehavior{}} {
		r.SetBehavior(b)
		if _, ok, err := r.TryHandle(ctx, wire.PingRequest{}); ok || err != nil {
			t.Errorf("%T: TryHandle ok %v, err %v; want a decline", b, ok, err)
		}
		if !holdsVerifier(sets) {
			t.Errorf("SetBehavior(%T) dropped the verifier", b)
		}
	}
}

func equalReplies(a, b any) bool {
	ra, isRead := a.(wire.ReadReply)
	if !isRead {
		return a == b
	}
	rb, ok := b.(wire.ReadReply)
	return ok && ra.Found == rb.Found && ra.Stamp == rb.Stamp && string(ra.Value) == string(rb.Value)
}
