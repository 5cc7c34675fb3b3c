package replica

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pqs/internal/ts"
	"pqs/internal/wire"
)

// maxDeltaBatch caps the entries one fuzzed delta-gossip request carries.
const maxDeltaBatch = 64

// refusedSig is a signature the test replica's verifier refuses.
const refusedSig = 0xEE

// verify is the test replica's verifier: it refuses refusedSig.
func verify(_ string, _ []byte, _ ts.Stamp, sig []byte) bool {
	return len(sig) == 0 || sig[0] != refusedSig
}

// gossipItems decodes n two-byte entries of a fuzzed gossip request: the
// key (of six) and value length, then the stamp (counter of eight, writer
// of four) and signature.
func gossipItems(p []byte, n int) []wire.Item {
	var items []wire.Item
	for i := 0; i < n; i, p = i+1, p[2:] {
		it := wire.Item{
			Key:   fmt.Sprintf("key-%d", p[0]%6),
			Value: make([]byte, p[0]/6%5),
			Stamp: ts.Stamp{Counter: uint64(p[1]&7) + 1, Writer: uint32(p[1]>>3) & 3},
		}
		if sig := p[1] >> 5; sig != 0 {
			it.Sig = []byte{[]byte{1, 2, refusedSig}[sig%3]}
		}
		items = append(items, it)
	}
	return items
}

// checkGossipDelta sends prog to one replica as a stream of delta-gossip
// requests and holds every reply, and the store after every request, to a
// last-writer-wins model. A request is two header bytes — the batch size
// (capped at maxDeltaBatch), then Since's mode in the low two bits (0 a full
// pull, 1 a window ending at the current sequence, 2 the current sequence,
// 3 ahead of it: the watermark a restarted peer sees) with its offset above
// them — and two bytes an entry (gossipItems). Few keys and stamps make
// duplicate, stale and out-of-order entries for one key common within a
// batch and across batches; the verifier refuses refusedSig.
//
// The reply must be exactly the model's: UpTo the sequence before the
// merge, and the entries the model adopted in (Since, UpTo] — Since read as
// 0 when it is ahead — by ascending adoption sequence, less those whose key
// the request itself overwrote, so nothing it delivered is echoed back.
func checkGossipDelta(t testing.TB, prog []byte) {
	r := New(0)
	r.SetVerifier(verify)
	m := &storeModel{m: map[string]Change{}}
	ctx := context.Background()
	for step := 0; len(prog) >= 2; step++ {
		cur := m.seq
		req := wire.GossipDeltaRequest{}
		switch off := uint64(prog[1] >> 2); prog[1] & 3 {
		case 1:
			req.Since = cur - min(off, cur)
		case 2:
			req.Since = cur
		case 3:
			req.Since = cur + 1 + off
		}
		n := min(int(prog[0])%(maxDeltaBatch+1), len(prog[2:])/2)
		req.Entries = gossipItems(prog[2:], n)
		prog = prog[2+2*n:]

		since := req.Since
		if since > cur {
			since = 0
		}
		want := wire.GossipDeltaReply{UpTo: cur}
		shown := m.changes(since, cur)
		delivered := map[string]bool{}
		for _, it := range req.Entries {
			if verify(it.Key, it.Value, it.Stamp, it.Sig) && m.apply(it.Key, Entry{Value: it.Value, Stamp: it.Stamp, Sig: it.Sig}) {
				delivered[it.Key] = true
			}
		}
		for _, c := range shown {
			if !delivered[c.Key] {
				want.Entries = append(want.Entries, wire.Item{Key: c.Key, Value: c.Entry.Value, Stamp: c.Entry.Stamp, Sig: c.Entry.Sig})
			}
		}

		resp, ok, err := r.TryHandle(ctx, req)
		if !ok || err != nil {
			t.Fatalf("step %d: TryHandle: ok %v, err %v", step, ok, err)
		}
		if got := resp.(wire.GossipDeltaReply); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Since %d at sequence %d, %d entries in:\nreply %+v\nwant  %+v", step, req.Since, cur, len(req.Entries), got, want)
		}
		if err := m.agrees(r.Store(), hash, 0, m.seq); err != nil {
			t.Fatalf("step %d: store: %v", step, err)
		}
	}
}

// TestGossipDeltaMatchesModel is FuzzGossipDelta over seeded random streams.
func TestGossipDeltaMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		prog := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(prog)
		checkGossipDelta(t, prog)
	}
}

// FuzzGossipDelta is the delta-gossip responder against its model, the
// request stream chosen by the fuzzer.
func FuzzGossipDelta(f *testing.F) {
	// A full pull delivering three keys, then a pull from the current
	// sequence, then one from ahead of it.
	f.Add([]byte{3, 0, 0, 1, 1, 2, 2, 3, 0, 2, 0, 3})
	// One key, out of order and repeated: 5, 3, 5 again, then 7 and 2
	// from other writers, a refused signature, then a window pull.
	f.Add([]byte{6, 0, 0, 4, 0, 2, 0, 4, 0, 0x0e, 0, 0x11, 0, 0x46, 2, 1 | 4<<2, 0, 0})
	// A full batch over every key, stamp and signature, then a pull from
	// far ahead of the sequence.
	batch := []byte{maxDeltaBatch, 0}
	for i := 0; i < maxDeltaBatch; i++ {
		batch = append(batch, byte(i), byte(i))
	}
	f.Add(append(batch, 1, 3|60<<2, 5, 7))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2000 {
			prog = prog[:2000]
		}
		checkGossipDelta(t, prog)
	})
}

// checkGossipFull is checkGossipDelta for the full-snapshot responder. A
// request is one header byte, the batch size (capped at maxDeltaBatch), and
// two bytes an entry as there. The reply must be exactly the model's: every
// entry of the merged store by ascending adoption sequence, less those
// whose key the request offered at a stamp at least as new. What a request
// offers for a key is its newest mention, refused or not: the initiator
// holds that.
func checkGossipFull(t testing.TB, prog []byte) {
	r := New(0)
	r.SetVerifier(verify)
	m := &storeModel{m: map[string]Change{}}
	ctx := context.Background()
	for step := 0; len(prog) >= 1; step++ {
		n := min(int(prog[0])%(maxDeltaBatch+1), len(prog[1:])/2)
		req := wire.GossipRequest{Entries: gossipItems(prog[1:], n)}
		prog = prog[1+2*n:]

		offered := map[string]ts.Stamp{}
		for _, it := range req.Entries {
			if st, ok := offered[it.Key]; !ok || st.Less(it.Stamp) {
				offered[it.Key] = it.Stamp
			}
			if verify(it.Key, it.Value, it.Stamp, it.Sig) {
				m.apply(it.Key, Entry{Value: it.Value, Stamp: it.Stamp, Sig: it.Sig})
			}
		}
		var want wire.GossipReply
		for _, c := range m.changes(0, m.seq) {
			if st, ok := offered[c.Key]; !ok || st.Less(c.Entry.Stamp) {
				want.Entries = append(want.Entries, wire.Item{Key: c.Key, Value: c.Entry.Value, Stamp: c.Entry.Stamp, Sig: c.Entry.Sig})
			}
		}

		resp, ok, err := r.TryHandle(ctx, req)
		if !ok || err != nil {
			t.Fatalf("step %d: TryHandle: ok %v, err %v", step, ok, err)
		}
		if got := resp.(wire.GossipReply); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: %d entries in:\nreply %+v\nwant  %+v", step, len(req.Entries), got, want)
		}
		if err := m.agrees(r.Store(), hash, 0, m.seq); err != nil {
			t.Fatalf("step %d: store: %v", step, err)
		}
	}
}

// TestGossipFullMatchesModel is FuzzGossipFull over seeded random streams.
func TestGossipFullMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		prog := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(prog)
		checkGossipFull(t, prog)
	}
}

// FuzzGossipFull is the full-snapshot gossip responder against its model,
// the request stream chosen by the fuzzer.
func FuzzGossipFull(f *testing.F) {
	// A push of three keys, then an empty pull.
	f.Add([]byte{3, 0, 0, 1, 1, 2, 2, 0})
	// One key offered at 5 and then at 3, another under a refused
	// signature, then a pull offering the first at 1.
	f.Add([]byte{3, 0, 4, 0, 2, 1, 0x44, 1, 0, 0})
	// A full batch over every key, stamp and signature, then a pull
	// offering two keys.
	batch := []byte{maxDeltaBatch}
	for i := 0; i < maxDeltaBatch; i++ {
		batch = append(batch, byte(i), byte(i))
	}
	f.Add(append(batch, 2, 5, 7, 0, 0))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2000 {
			prog = prog[:2000]
		}
		checkGossipFull(t, prog)
	})
}
