package replica

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"reflect"
	"testing"

	"pqs/internal/ts"
	"pqs/internal/wire"
)

// TestReadReplyIsOnReadOfTheStoredPair: whatever shortcut handle takes for
// an honest read, every behaviour's reply is exactly OnRead of the pair the
// store holds, for a key present and a key absent. Each replica stores a
// signed v1 under Correct, then takes a v2 under the behaviour, which
// applies it or not as the behaviour decides. Replies hold slices, so they
// are compared with reflect.DeepEqual (== on them would panic).
func TestReadReplyIsOnReadOfTheStoredPair(t *testing.T) {
	ctx := context.Background()
	sig := func(c byte) []byte { return bytes.Repeat([]byte{c}, ed25519.SignatureSize) }
	for _, b := range []Behavior{
		Correct{},
		Stale{},
		Forger{Value: []byte("forged"), Stamp: ts.Stamp{Counter: 1 << 40}, Sig: sig(9)},
		Silent{},
		&BadSigEcho{Bit: 9},
		&BadSigEcho{Bit: 9, Replay: true},
		Delayed{Inner: Correct{}},
	} {
		r := New(0)
		r.Handle(ctx, wire.WriteRequest{Key: "x", Value: []byte("v1"), Stamp: ts.Stamp{Counter: 1, Writer: 1}, Sig: sig(1)}) //nolint:errcheck // Correct stores it
		r.SetBehavior(b)
		r.Handle(ctx, wire.WriteRequest{Key: "x", Value: []byte("v2"), Stamp: ts.Stamp{Counter: 2, Writer: 1}, Sig: sig(2)}) //nolint:errcheck // Silent refuses it
		for _, key := range []string{"x", "absent"} {
			var pair wire.ReadReply
			if e, ok := r.Store().Get(key); ok {
				pair = wire.ReadReply{Found: true, Value: e.Value, Stamp: e.Stamp, Sig: e.Sig}
			}
			want, wantErr := b.OnRead(key, pair)
			got, err := r.Handle(ctx, wire.ReadRequest{Key: key})
			if err != wantErr || (err == nil && !reflect.DeepEqual(got, any(want))) {
				t.Errorf("%T, key %q: handle = %+v, %v; OnRead = %+v, %v", b, key, got, err, want, wantErr)
			}
		}
	}
}

// TestHonestReadAllocatesNothing: an honest replica answers a read with the
// box its store made at adoption, so the read RPC allocates nothing, whether
// the key is there or not.
func TestHonestReadAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	r := New(0)
	r.Store().Apply("x", Entry{Value: []byte("v"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})
	for _, key := range []string{"x", "absent"} {
		var req any = wire.ReadRequest{Key: key}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, ok, err := r.TryHandle(ctx, req); !ok || err != nil {
				t.Fatalf("TryHandle(%q): ok %v, err %v", key, ok, err)
			}
		})
		if allocs != 0 {
			t.Errorf("honest read of %q: %v allocs, want 0", key, allocs)
		}
	}
}

// TestReadAfterAdoptionIsFresh: a box belongs to one version. After an
// adopted write — through the write RPC or straight into the store, as
// gossip does — a read returns the new pair, never the box of the one it
// replaced; a write that is not adopted leaves the box alone; and a reply
// already handed out keeps the pair it was made for.
func TestReadAfterAdoptionIsFresh(t *testing.T) {
	ctx := context.Background()
	r := New(0)
	readX := func() wire.ReadReply {
		t.Helper()
		resp, ok, err := r.TryHandle(ctx, wire.ReadRequest{Key: "x"})
		if !ok || err != nil {
			t.Fatalf("read: ok %v, err %v", ok, err)
		}
		return resp.(wire.ReadReply)
	}
	var first wire.ReadReply
	for c := uint64(1); c <= 40; c++ {
		val := []byte(fmt.Sprintf("v%d", c))
		if c%2 == 1 {
			write(t, r, "x", string(val), c)
		} else {
			r.Store().Apply("x", Entry{Value: val, Stamp: ts.Stamp{Counter: c, Writer: 1}})
		}
		if c > 1 {
			write(t, r, "x", "old", c-1) // below the stored stamp: not adopted
		}
		got := readX()
		if !got.Found || string(got.Value) != string(val) || got.Stamp.Counter != c {
			t.Fatalf("after adopting %s@%d, read %+v", val, c, got)
		}
		if c == 1 {
			first = got
		}
	}
	if string(first.Value) != "v1" || first.Stamp.Counter != 1 {
		t.Errorf("the first reply handed out now reads %+v, want v1@1", first)
	}
}
