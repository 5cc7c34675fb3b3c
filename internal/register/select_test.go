package register

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/sv"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// selectKey is the key every selection test reads.
const selectKey = "x"

// signer mints genuine and forged replies for the selection tests.
type signer struct {
	kp  sv.KeyPair
	reg *sv.Registry
}

func newSigner(t testing.TB) signer {
	t.Helper()
	kp, err := sv.GenerateKey(&zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	reg := sv.NewRegistry()
	if err := reg.Add(1, kp.Public); err != nil {
		t.Fatal(err)
	}
	return signer{kp: kp, reg: reg}
}

// genuine is a reply the writer really signed.
func (s signer) genuine(counter uint64, value string) wire.ReadReply {
	stamp := ts.Stamp{Counter: counter, Writer: 1}
	return wire.ReadReply{Found: true, Value: []byte(value), Stamp: stamp,
		Sig: sv.Sign(s.kp.Private, selectKey, []byte(value), stamp)}
}

// forged is a reply carrying sig, which the writer never produced.
func forged(counter uint64, value, sig string) wire.ReadReply {
	return wire.ReadReply{Found: true, Value: []byte(value), Stamp: ts.Stamp{Counter: counter, Writer: 1}, Sig: []byte(sig)}
}

func asReplies(msgs []wire.ReadReply) []readReply {
	out := make([]readReply, len(msgs))
	for i, m := range msgs {
		out[i] = readReply{id: quorum.ServerID(i), msg: m}
	}
	return out
}

// selection is the part of a ReadResult the acceptance rule determines.
type selection struct {
	found    bool
	value    string
	stamp    ts.Stamp
	vouchers int
}

func selectionOf(replies []readReply, best int) selection {
	if best < 0 {
		return selection{}
	}
	acc := replies[best].msg
	return selection{found: true, value: string(acc.Value), stamp: acc.Stamp, vouchers: vouchers(replies, best)}
}

// verifies is the reference verdict on one reply: plain sv.Verify under the
// one registered writer's key, with no memory of earlier checks, so that it
// stays independent of the registry's verified set, which is part of what
// the tests below put on trial.
func (s signer) verifies(m wire.ReadReply) bool {
	return m.Stamp.Writer == 1 && sv.Verify(s.kp.Public, selectKey, m.Value, m.Stamp, m.Sig)
}

// referenceSelect is the Section 4 rule spelled out: verify every found
// reply (V'), take the highest timestamp in V' (first to arrive among
// equals), count the replies naming that pair. selectDissemination must
// agree with it on every input. best is the accepted reply's index, -1 when
// V' is empty.
func referenceSelect(s signer, msgs []wire.ReadReply) (sel selection, best int) {
	best = -1
	for i, m := range msgs {
		if !m.Found || !s.verifies(m) {
			continue
		}
		if !sel.found || sel.stamp.Less(m.Stamp) {
			sel, best = selection{found: true, value: string(m.Value), stamp: m.Stamp}, i
		}
	}
	for _, m := range msgs {
		if sel.found && m.Found && m.Stamp == sel.stamp && string(m.Value) == sel.value {
			sel.vouchers++
		}
	}
	return sel, best
}

// onceVerifier wraps a registry's VerifyEntry, counting calls and failing
// the test if any (stamp, value, sig) triple is ever submitted twice.
type onceVerifier struct {
	t     *testing.T
	reg   *sv.Registry
	seen  map[string]bool
	calls int
}

func newOnceVerifier(t *testing.T, reg *sv.Registry) *onceVerifier {
	return &onceVerifier{t: t, reg: reg, seen: make(map[string]bool)}
}

func (v *onceVerifier) verify(key string, value []byte, stamp ts.Stamp, sig []byte) bool {
	v.t.Helper()
	v.calls++
	triple := fmt.Sprintf("%d@%d/%q/%q", stamp.Counter, stamp.Writer, value, sig)
	if v.seen[triple] {
		v.t.Errorf("triple %s verified twice", triple)
	}
	v.seen[triple] = true
	return v.reg.VerifyEntry(key, value, stamp, sig)
}

// TestSelectDisseminationMatchesReference is the property test: on seeded
// random reply sets mixing every kind of reply a read can meet, on-demand
// selection returns what "verify everything, then max" returns — both in
// one shot and when re-run on a growing prefix the way an eager read does —
// and never submits the same triple for verification twice.
func TestSelectDisseminationMatchesReference(t *testing.T) {
	s := newSigner(t)
	const current = 100
	rng := rand.New(rand.NewSource(7))
	// Signing is the slow part; mint the genuine replies once.
	cur := s.genuine(current, "current")
	rival := s.genuine(current, "rival") // equal stamp, different value, also signed
	stale := []wire.ReadReply{s.genuine(40, "old-a"), s.genuine(70, "old-b"), s.genuine(99, "old-c")}
	badSigCur := cur
	badSigCur.Sig = append([]byte(nil), cur.Sig...)
	badSigCur.Sig[3] ^= 0x55 // the genuine pair under a signature that does not verify
	unknownWriter := cur
	unknownWriter.Stamp.Writer = 9

	kinds := []func() wire.ReadReply{
		func() wire.ReadReply { return cur },
		func() wire.ReadReply { return rival },
		func() wire.ReadReply { return stale[rng.Intn(len(stale))] },
		func() wire.ReadReply { return badSigCur },
		func() wire.ReadReply { return unknownWriter },
		func() wire.ReadReply { return wire.ReadReply{} }, // nothing found
		func() wire.ReadReply { return forged(1<<40, "forged", "colluders share this triple") },
		func() wire.ReadReply { // forged high, distinct triples
			return forged(current+1+uint64(rng.Intn(5)), "forged", fmt.Sprintf("sig-%d", rng.Intn(4)))
		},
		func() wire.ReadReply { return forged(uint64(1+rng.Intn(current-1)), "forged-low", "low") },
		func() wire.ReadReply { return forged(current, "current", "") }, // wrong-length signature
		func() wire.ReadReply { // a stale signature stolen for a forged value
			return wire.ReadReply{Found: true, Value: []byte("forged"), Stamp: ts.Stamp{Counter: 1 << 41, Writer: 1}, Sig: stale[0].Sig}
		},
	}

	for trial := 0; trial < 400; trial++ {
		// Each trial draws from a random subset of kinds, so sets with no
		// verifiable reply, or none found at all, turn up regularly.
		var pool []func() wire.ReadReply
		for _, k := range kinds {
			if rng.Intn(3) > 0 {
				pool = append(pool, k)
			}
		}
		if len(pool) == 0 {
			pool = kinds[5:6]
		}
		msgs := make([]wire.ReadReply, 1+rng.Intn(25))
		for i := range msgs {
			msgs[i] = pool[rng.Intn(len(pool))]()
		}
		want, _ := referenceSelect(s, msgs)

		oneShot := asReplies(msgs)
		v := newOnceVerifier(t, s.reg)
		if got := selectionOf(oneShot, selectDissemination(selectKey, oneShot, v.verify)); got != want {
			t.Fatalf("trial %d: one shot selected %+v, reference %+v\nreplies: %+v", trial, got, want, msgs)
		}

		// The eager pattern: from some reply on, re-run after every arrival.
		grown := asReplies(msgs)
		v = newOnceVerifier(t, s.reg)
		best := -1
		for n := 1 + rng.Intn(len(msgs)); n <= len(msgs); n++ {
			best = selectDissemination(selectKey, grown[:n], v.verify)
		}
		if got := selectionOf(grown, best); got != want {
			t.Fatalf("trial %d: incremental run selected %+v, reference %+v\nreplies: %+v", trial, got, want, msgs)
		}
		for i := range grown {
			r := &grown[i]
			if r.verdict == unverified {
				continue
			}
			if ok := s.verifies(r.msg); ok != (r.verdict == valid) {
				t.Fatalf("trial %d: reply %d carries verdict %d, plain sv.Verify says %v", trial, i, r.verdict, ok)
			}
		}
	}
}

// TestSelectDisseminationVerifyBound pins how many signature checks one
// selection may cost: one for the accepted triple plus one per distinct
// triple outranking it — never one per reply.
func TestSelectDisseminationVerifyBound(t *testing.T) {
	s := newSigner(t)
	const q, f = 25, 10
	cur := s.genuine(100, "current")
	old := s.genuine(60, "old")
	fill := func(msgs []wire.ReadReply) []wire.ReadReply {
		for len(msgs) < q {
			if len(msgs)%3 == 0 {
				msgs = append(msgs, old)
			} else {
				msgs = append(msgs, cur)
			}
		}
		return msgs
	}
	colluders := func() []wire.ReadReply {
		var msgs []wire.ReadReply
		for i := 0; i < f; i++ {
			msgs = append(msgs, forged(1<<40, "forged", "one shared triple"))
		}
		return msgs
	}
	loners := func() []wire.ReadReply {
		var msgs []wire.ReadReply
		for i := 0; i < f; i++ {
			msgs = append(msgs, forged(1<<40+uint64(i%3), "forged", fmt.Sprintf("distinct-%d", i)))
		}
		return msgs
	}
	cases := []struct {
		name      string
		msgs      []wire.ReadReply
		calls     int
		discarded int
		found     bool
	}{
		{"all genuine", fill(nil), 1, 0, true},
		{"colluding forgers share one triple", fill(colluders()), 2, f, true},
		{"forgers with distinct triples", fill(loners()), f + 1, f, true},
		{"forged below the accepted stamp are never examined",
			fill([]wire.ReadReply{forged(99, "forged", "a"), forged(98, "forged", "b"), forged(1, "forged", "c")}), 1, 0, true},
		{"none verifiable", append(colluders(), loners()...), 1 + f, 2 * f, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			replies := asReplies(tc.msgs)
			// Arrival order must not matter to the bound.
			rand.New(rand.NewSource(3)).Shuffle(len(replies), func(i, j int) { replies[i], replies[j] = replies[j], replies[i] })
			v := newOnceVerifier(t, s.reg)
			best := selectDissemination(selectKey, replies, v.verify)
			if (best >= 0) != tc.found {
				t.Fatalf("best = %d, want found = %v", best, tc.found)
			}
			if tc.found && string(replies[best].msg.Value) != "current" {
				t.Fatalf("accepted %q", replies[best].msg.Value)
			}
			if v.calls != tc.calls {
				t.Errorf("%d verifications, want %d", v.calls, tc.calls)
			}
			discarded := 0
			for _, r := range replies {
				if r.verdict == invalid {
					discarded++
				}
			}
			if discarded != tc.discarded {
				t.Errorf("%d replies judged invalid, want %d", discarded, tc.discarded)
			}
			// A second run over the same replies has nothing left to judge.
			if again := selectDissemination(selectKey, replies, v.verify); again != best || v.calls != tc.calls {
				t.Errorf("re-run: best %d → %d, verifications %d → %d", best, again, tc.calls, v.calls)
			}
		})
	}
}

// fixedSystem hands every operation the same access set and spares, so a
// test can decide which server plays which part.
type fixedSystem struct {
	quorum.SpareSampler
	members, spares []quorum.ServerID
}

func (f fixedSystem) Pick(*rand.Rand) []quorum.ServerID {
	return append([]quorum.ServerID(nil), f.members...)
}

func (f fixedSystem) PickWithSpares(*rand.Rand, int) ([]quorum.ServerID, []quorum.ServerID) {
	return append([]quorum.ServerID(nil), f.members...), append([]quorum.ServerID(nil), f.spares...)
}

// TestEagerDisseminationCompletesOnSpare: the whole access set is forgers,
// each with its own triple, and the one genuine copy sits on a spare the
// hedge timer promotes. The eager read reaches quorum-size replies with
// nothing verifiable, keeps waiting, and completes the moment the spare's
// reply verifies — under a SimClock, at exactly hedge delay + the spare's
// latency. The three forgeries are each judged once (Discarded == 3): the
// re-run on the spare's arrival re-judges none of them (the once-per-triple
// property of re-runs is pinned by TestSelectDisseminationMatchesReference).
func TestEagerDisseminationCompletesOnSpare(t *testing.T) {
	s := newSigner(t)
	const (
		forgerLatency = 2 * time.Millisecond
		spareLatency  = 5 * time.Millisecond
		hedgeDelay    = time.Millisecond
	)
	clk := vtime.NewSimClock()
	var (
		rr      ReadResult
		readErr error
		stats   AccessStats
		took    time.Duration
	)
	clk.Run(func() {
		net := transport.NewMemNetwork(5)
		net.SetClock(clk)
		for i := 0; i < 4; i++ {
			rep := replica.New(quorum.ServerID(i))
			net.Register(quorum.ServerID(i), rep)
			if i < 3 {
				rep.SetBehavior(replica.Forger{Value: []byte("forged"), Stamp: ts.Stamp{Counter: 1 << 40, Writer: 1}, Sig: []byte(fmt.Sprintf("forger-%d", i))})
				net.SetServerLatency(quorum.ServerID(i), forgerLatency, forgerLatency)
			} else {
				g := s.genuine(7, "genuine")
				rep.Store().Apply(selectKey, replica.Entry{Value: g.Value, Stamp: g.Stamp, Sig: g.Sig})
				net.SetServerLatency(quorum.ServerID(i), spareLatency, spareLatency)
			}
		}
		cl, err := NewClient(Options{
			System: fixedSystem{SpareSampler: uniformSystem(t, 4, 3), members: []quorum.ServerID{0, 1, 2}, spares: []quorum.ServerID{3}},
			Mode:   Dissemination, Registry: s.reg, Transport: net, Time: clk,
			Rand:   rand.New(rand.NewSource(1)),
			Tuning: config.Tuning{Spares: 1, HedgeDelay: hedgeDelay, EagerRead: true},
		})
		if err != nil {
			readErr = err
			return
		}
		rr, readErr = cl.Read(context.Background(), selectKey)
		// On this worker: after Run returns, the clock has also covered the
		// idle dispatch workers' retirement.
		took = clk.Elapsed()
		cl.WaitDrained()
		stats = cl.Stats()
	})
	if readErr != nil {
		t.Fatal(readErr)
	}
	if !rr.Found || string(rr.Value) != "genuine" {
		t.Fatalf("read returned %+v", rr)
	}
	if rr.Promoted != 1 || rr.Replies != 4 || rr.Discarded != 3 || rr.Vouchers != 1 {
		t.Errorf("promoted %d, replies %d, discarded %d, vouchers %d; want 1, 4, 3, 1", rr.Promoted, rr.Replies, rr.Discarded, rr.Vouchers)
	}
	if got, want := took, hedgeDelay+spareLatency; got != want {
		t.Errorf("read took %v of virtual time, want %v (hedge delay + spare latency)", got, want)
	}
	if stats.LateReplies != 0 {
		t.Errorf("%d late replies: the read should have consumed all four", stats.LateReplies)
	}
}
