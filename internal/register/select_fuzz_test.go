package register

import (
	"bytes"
	"testing"

	"pqs/internal/ts"
	"pqs/internal/wire"
)

// fuzzVersions is how many genuine versions of selectKey the fuzzer's
// replies are cut from.
const fuzzVersions = 8

// fuzzReplies decodes a fuzz input into a reply set, four bytes to a reply:
// a kind and three selectors. Everything a server can answer is reachable —
// nothing, a genuine version (current or replayed), the parts of genuine
// versions mixed and matched, a genuine version with one signature bit
// flipped or under a writer nobody registered, and garbage of any length.
func fuzzReplies(versions []wire.ReadReply, data []byte) []wire.ReadReply {
	const maxReplies = 40
	var msgs []wire.ReadReply
	for ; len(data) >= 4 && len(msgs) < maxReplies; data = data[4:] {
		kind, a, b, c := data[0], data[1], data[2], data[3]
		pick := func(sel byte) wire.ReadReply { return versions[int(sel)%len(versions)] }
		var m wire.ReadReply
		switch kind % 6 {
		case 0: // nothing found
		case 1:
			m = pick(a)
		case 2: // each part genuine, the tuple not (unless the selectors agree)
			m = wire.ReadReply{Found: true, Value: pick(a).Value, Stamp: pick(b).Stamp, Sig: pick(c).Sig}
		case 3:
			m = pick(a)
			m.Sig = append([]byte(nil), m.Sig...)
			bit := (int(b)<<8 | int(c)) % (8 * len(m.Sig))
			m.Sig[bit/8] ^= 1 << (bit % 8)
		case 4:
			m = pick(a)
			m.Stamp.Writer = 2 + uint32(b)
		case 5: // a signature of c bytes, 64 among them, over whatever
			m = wire.ReadReply{Found: true, Value: bytes.Repeat([]byte{a}, int(a)%5),
				Stamp: ts.Stamp{Counter: uint64(b) << (b % 57), Writer: 1}, Sig: bytes.Repeat([]byte{c}, int(c)%80)}
		}
		msgs = append(msgs, m)
	}
	return msgs
}

// referenceVerdicts is what selectDissemination must leave in the replies
// when the reference accepts msgs[best]: that reply is valid; every found
// reply that outranks it (a higher stamp, or the same stamp and an earlier
// arrival) was examined and — best being the maximum of the verifiable
// ones — failed, so it is invalid, and those are exactly what
// ReadResult.Discarded counts; nothing else is ever looked at.
func referenceVerdicts(msgs []wire.ReadReply, best int) []verdict {
	verdicts := make([]verdict, len(msgs))
	for i, m := range msgs {
		switch {
		case i == best:
			verdicts[i] = valid
		case !m.Found:
		case best < 0, msgs[best].Stamp.Less(m.Stamp), msgs[best].Stamp == m.Stamp && i < best:
			verdicts[i] = invalid
		}
	}
	return verdicts
}

// FuzzSelectDissemination is the differential fuzzer of the on-demand
// selection over the registry's verified set against "verify everything
// with plain sv.Verify, then take the maximum". Each reply set is judged
// twice from scratch: the second pass finds every genuine tuple already in
// the set, and must select the same reply and condemn the same ones. The
// registry lives as long as the fuzzing process, so each input also meets
// whatever the inputs before it left in the set.
func FuzzSelectDissemination(f *testing.F) {
	seeds := []struct {
		name string
		data []byte
	}{
		{"zero: no replies at all", nil},
		{"empty: one server, nothing found", []byte{0, 0, 0, 0}},
		{"one genuine reply", []byte{1, 7, 0, 0}},
		{"one reply, one flipped signature bit", []byte{3, 7, 1, 255}},
		{"the newest version's pair under an older version's signature", []byte{1, 6, 0, 0, 2, 7, 7, 6, 1, 5, 0, 0}},
		{"an older version's value and signature under the newest stamp", []byte{2, 3, 7, 3, 1, 3, 0, 0}},
		{"equal stamps: the bad signature arrives first", []byte{3, 7, 0, 9, 1, 7, 0, 0, 3, 7, 0, 9}},
		{"nothing verifiable", []byte{5, 1, 200, 64, 4, 7, 0, 0, 3, 2, 0, 1, 5, 0, 9, 6}},
		{"full: forty replies of every kind", func() []byte {
			var data []byte
			for i := byte(0); i < 40; i++ {
				data = append(data, i, i*3, i*5, 64+i%2)
			}
			return data
		}()},
	}
	for _, seed := range seeds {
		f.Add(seed.data)
	}

	s := newSigner(f)
	var versions []wire.ReadReply
	for v := 1; v <= fuzzVersions; v++ {
		versions = append(versions, s.genuine(uint64(v), string(rune('a'+v))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := fuzzReplies(versions, data)
		want, wantBest := referenceSelect(s, msgs)
		wantVerdicts := referenceVerdicts(msgs, wantBest)
		for pass := 1; pass <= 2; pass++ {
			replies := asReplies(msgs)
			best := selectDissemination(selectKey, replies, s.reg.VerifyEntry)
			if got := selectionOf(replies, best); got != want {
				t.Fatalf("pass %d selected %+v, reference %+v\nreplies: %+v", pass, got, want, msgs)
			}
			for i := range replies {
				if replies[i].verdict != wantVerdicts[i] {
					t.Fatalf("pass %d: reply %d carries verdict %d, reference %d\nreplies: %+v", pass, i, replies[i].verdict, wantVerdicts[i], msgs)
				}
			}
		}
	})
}
