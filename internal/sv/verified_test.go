package sv

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pqs/internal/ts"
)

// countingRegistry is a registry whose real ed25519.Verify calls are
// counted: the tests below assert on what ran, not on how long it took.
func countingRegistry() (*Registry, *atomic.Int64) {
	reg := NewRegistry()
	var checks atomic.Int64
	reg.check = func(pub ed25519.PublicKey, message, sig []byte) bool {
		checks.Add(1)
		return ed25519.Verify(pub, message, sig)
	}
	return reg, &checks
}

// occupied counts the fingerprints the set holds.
func (s *verifiedSet) occupied() int {
	n := 0
	for i := range s {
		sh := &s[i]
		sh.mu.Lock()
		for _, p := range sh.pairs {
			for _, fp := range p {
				if fp != (fingerprint{}) {
					n++
				}
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// clear empties the set.
func (s *verifiedSet) clear() {
	for i := range s {
		sh := &s[i]
		sh.mu.Lock()
		sh.pairs = [shardPairs][2]fingerprint{}
		sh.mu.Unlock()
	}
}

func TestVerifiedSetSize(t *testing.T) {
	if size := reflect.TypeOf(verifiedSet{}).Size(); size > 64<<10 {
		t.Errorf("verifiedSet is %d bytes, over the 64 KiB the package comment promises", size)
	}
}

// tuple is one signed entry.
type tuple struct {
	key   string
	value []byte
	stamp ts.Stamp
	sig   []byte
}

func signed(kp KeyPair, key string, value []byte, stamp ts.Stamp) tuple {
	return tuple{key: key, value: value, stamp: stamp, sig: Sign(kp.Private, key, value, stamp)}
}

func (tp tuple) judge(reg *Registry) (bool, Cost) {
	return reg.Judge(tp.key, tp.value, tp.stamp, tp.sig)
}

// TestJudgeVerifiesOncePerTuple: whatever the tuple's shape — nothing in it,
// something, or more than the stack buffer holds — its first verdict runs
// ed25519 once and every later one runs nothing, with the same answer.
func TestJudgeVerifiesOncePerTuple(t *testing.T) {
	kp := testKey(t, 11)
	const writer = 7
	// What is left of the stack buffer for key and value together.
	room := fingerprintStack - ed25519.PublicKeySize - ed25519.SignatureSize - digestSize(0, 0)
	cases := []struct {
		name  string
		key   string
		value []byte
		stamp ts.Stamp
	}{
		{"zero tuple", "", nil, ts.Stamp{Writer: writer}},
		{"empty value", "k", []byte{}, ts.Stamp{Counter: 1, Writer: writer}},
		{"empty key", "", []byte("v"), ts.Stamp{Counter: 1, Writer: writer}},
		{"small", "k00042", bytes.Repeat([]byte{0xAB}, 36), ts.Stamp{Counter: 9, Writer: writer}},
		{"fills the stack buffer", "k", make([]byte, room-1), ts.Stamp{Counter: 2, Writer: writer}},
		{"one byte past the stack buffer", "k", make([]byte, room), ts.Stamp{Counter: 3, Writer: writer}},
		{"16 KiB value", "big", make([]byte, 16<<10), ts.Stamp{Counter: 1 << 40, Writer: writer}},
		{"largest stamp", "k", []byte("v"), ts.Stamp{Counter: ^uint64(0), Writer: writer}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg, checks := countingRegistry()
			mustAdd(t, reg, writer, kp.Public)
			tp := signed(kp, tc.key, tc.value, tc.stamp)
			if ok, cost := tp.judge(reg); !ok || cost != Checked || checks.Load() != 1 {
				t.Fatalf("first verdict: ok=%v cost=%d after %d checks; want true, Checked, 1", ok, cost, checks.Load())
			}
			for i := 0; i < 3; i++ {
				if ok, cost := tp.judge(reg); !ok || cost != Reused {
					t.Fatalf("verdict %d: ok=%v cost=%d; want true, Reused", i+2, ok, cost)
				}
			}
			if !reg.VerifyEntry(tp.key, tp.value, tp.stamp, tp.sig) {
				t.Error("VerifyEntry disagrees with Judge")
			}
			if n := checks.Load(); n != 1 {
				t.Errorf("%d ed25519 checks for five verdicts on one tuple, want 1", n)
			}
		})
	}
}

// TestJudgeAnyChangedFieldMisses: with a tuple in the verified set, every
// tuple one field away from it is a stranger — judged by ed25519, refused,
// and judged by ed25519 again the next time, because a failed check is never
// remembered. The verified tuple itself stays reusable throughout.
func TestJudgeAnyChangedFieldMisses(t *testing.T) {
	kp := testKey(t, 12)
	const writer, alias = 7, 8
	base := signed(kp, "key", []byte("value"), ts.Stamp{Counter: 42, Writer: writer})
	flipped := func(bit int) []byte {
		sig := append([]byte(nil), base.sig...)
		sig[bit/8] ^= 1 << (bit % 8)
		return sig
	}
	older := signed(kp, "key", []byte("older"), ts.Stamp{Counter: 41, Writer: writer})
	cases := []struct {
		name string
		tp   tuple
	}{
		{"key", tuple{"kez", base.value, base.stamp, base.sig}},
		{"key and value swap a byte across the boundary", tuple{"keyv", []byte("alue"), base.stamp, base.sig}},
		{"value", tuple{base.key, []byte("valuf"), base.stamp, base.sig}},
		{"value emptied", tuple{base.key, nil, base.stamp, base.sig}},
		{"stamp counter", tuple{base.key, base.value, ts.Stamp{Counter: 43, Writer: writer}, base.sig}},
		// alias is registered under the same public key, so only the writer
		// id inside the signed bytes tells the two apart.
		{"stamp writer", tuple{base.key, base.value, ts.Stamp{Counter: 42, Writer: alias}, base.sig}},
		{"first signature bit", tuple{base.key, base.value, base.stamp, flipped(0)}},
		{"last signature bit", tuple{base.key, base.value, base.stamp, flipped(511)}},
		{"an older version's genuine signature", tuple{base.key, base.value, base.stamp, older.sig}},
		{"an older version's value and signature under the new stamp", tuple{base.key, older.value, base.stamp, older.sig}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg, checks := countingRegistry()
			mustAdd(t, reg, writer, kp.Public)
			mustAdd(t, reg, alias, kp.Public)
			for _, warm := range []tuple{base, older} {
				if ok, _ := warm.judge(reg); !ok {
					t.Fatal("genuine tuple refused")
				}
			}
			before := checks.Load()
			held := reg.verified.occupied()
			for i := 1; i <= 3; i++ {
				if ok, cost := tc.tp.judge(reg); ok || cost != Checked {
					t.Fatalf("verdict %d: ok=%v cost=%d; want false, Checked", i, ok, cost)
				}
				if got := checks.Load() - before; got != int64(i) {
					t.Fatalf("%d ed25519 checks after %d verdicts on a bad tuple", got, i)
				}
			}
			if Verify(kp.Public, tc.tp.key, tc.tp.value, tc.tp.stamp, tc.tp.sig) {
				t.Fatal("the case is broken: plain Verify accepts the tuple")
			}
			if n := reg.verified.occupied(); n != held {
				t.Errorf("set grew from %d to %d entries on failed checks", held, n)
			}
			if ok, cost := base.judge(reg); !ok || cost != Reused {
				t.Errorf("verified tuple afterwards: ok=%v cost=%d; want true, Reused", ok, cost)
			}
		})
	}
}

// TestJudgeFastRejectsStayInFront: an unknown writer or a signature of the
// wrong length is refused before anything is hashed or checked.
func TestJudgeFastRejectsStayInFront(t *testing.T) {
	kp := testKey(t, 13)
	reg, checks := countingRegistry()
	mustAdd(t, reg, 7, kp.Public)
	base := signed(kp, "key", make([]byte, 16<<10), ts.Stamp{Counter: 1, Writer: 7})
	if ok, _ := base.judge(reg); !ok {
		t.Fatal("genuine tuple refused")
	}
	rejects := []tuple{
		{base.key, base.value, ts.Stamp{Counter: 1, Writer: 0xFFFFFFFF}, base.sig},
		{base.key, base.value, base.stamp, nil},
		{base.key, base.value, base.stamp, []byte("forged")},
		{base.key, base.value, base.stamp, base.sig[:63]},
		{base.key, base.value, base.stamp, append(append([]byte(nil), base.sig...), 0)},
	}
	before := checks.Load()
	for i, tp := range rejects {
		if ok, cost := tp.judge(reg); ok || cost != Rejected {
			t.Errorf("reject %d: ok=%v cost=%d; want false, Rejected", i, ok, cost)
		}
		if allocs := testing.AllocsPerRun(20, func() { tp.judge(reg) }); allocs != 0 {
			t.Errorf("reject %d: %v allocations, want 0", i, allocs)
		}
	}
	if n := checks.Load() - before; n != 0 {
		t.Errorf("%d ed25519 checks on fast rejects", n)
	}
}

// TestJudgeReuseAllocatesNothing: a small tuple is fingerprinted on the
// stack.
func TestJudgeReuseAllocatesNothing(t *testing.T) {
	kp := testKey(t, 14)
	reg := NewRegistry()
	mustAdd(t, reg, 7, kp.Public)
	tp := signed(kp, "k00042", make([]byte, 36), ts.Stamp{Counter: 5, Writer: 7})
	tp.judge(reg)
	if allocs := testing.AllocsPerRun(100, func() { tp.judge(reg) }); allocs != 0 {
		t.Errorf("%v allocations per reused verdict, want 0", allocs)
	}
}

// TestAddRotatesKey: replacing a writer's key strands what was verified
// under the old one — the old signature is checked afresh, and fails — while
// tuples signed under the new key verify and are remembered as usual.
func TestAddRotatesKey(t *testing.T) {
	oldKey, newKey := testKey(t, 15), testKey(t, 16)
	reg, checks := countingRegistry()
	mustAdd(t, reg, 7, oldKey.Public)
	stamp := ts.Stamp{Counter: 3, Writer: 7}
	underOld := signed(oldKey, "k", []byte("v"), stamp)
	for i := 0; i < 2; i++ {
		if ok, _ := underOld.judge(reg); !ok {
			t.Fatal("genuine tuple refused")
		}
	}

	mustAdd(t, reg, 7, newKey.Public)
	before := checks.Load()
	for i := 1; i <= 2; i++ {
		if ok, cost := underOld.judge(reg); ok || cost != Checked {
			t.Fatalf("old signature after rotation: ok=%v cost=%d; want false, Checked", ok, cost)
		}
	}
	if n := checks.Load() - before; n != 2 {
		t.Errorf("%d ed25519 checks for two verdicts on the stranded tuple, want 2", n)
	}
	underNew := signed(newKey, "k", []byte("v"), stamp)
	if ok, cost := underNew.judge(reg); !ok || cost != Checked {
		t.Errorf("new signature: ok=%v cost=%d; want true, Checked", ok, cost)
	}
	if ok, cost := underNew.judge(reg); !ok || cost != Reused {
		t.Errorf("new signature again: ok=%v cost=%d; want true, Reused", ok, cost)
	}
}

// TestSignEntryNotesOnlyUnderRegisteredKey: the sign-side insert happens
// iff the registry holds, for the stamp's writer, exactly the signer's own
// public half.
func TestSignEntryNotesOnlyUnderRegisteredKey(t *testing.T) {
	registered, stranger := testKey(t, 17), testKey(t, 18)
	stamp := ts.Stamp{Counter: 1, Writer: 7}

	t.Run("registered key", func(t *testing.T) {
		reg, checks := countingRegistry()
		mustAdd(t, reg, 7, registered.Public)
		sig := reg.SignEntry(registered.Private, "k", []byte("v"), stamp)
		if !bytes.Equal(sig, Sign(registered.Private, "k", []byte("v"), stamp)) {
			t.Fatal("SignEntry's signature differs from Sign's")
		}
		if ok, cost := reg.Judge("k", []byte("v"), stamp, sig); !ok || cost != Reused {
			t.Errorf("own write read back: ok=%v cost=%d; want true, Reused", ok, cost)
		}
		if n := checks.Load(); n != 0 {
			t.Errorf("%d ed25519 checks, want 0", n)
		}
	})
	t.Run("another key is registered for the writer", func(t *testing.T) {
		reg, checks := countingRegistry()
		mustAdd(t, reg, 7, registered.Public)
		sig := reg.SignEntry(stranger.Private, "k", []byte("v"), stamp)
		if n := reg.verified.occupied(); n != 0 {
			t.Fatalf("set holds %d entries after a stranger signed", n)
		}
		if ok, cost := reg.Judge("k", []byte("v"), stamp, sig); ok || cost != Checked || checks.Load() != 1 {
			t.Errorf("stranger's signature: ok=%v cost=%d after %d checks; want false, Checked, 1", ok, cost, checks.Load())
		}
	})
	t.Run("no key is registered for the writer", func(t *testing.T) {
		reg, checks := countingRegistry()
		sig := reg.SignEntry(registered.Private, "k", []byte("v"), stamp)
		if n := reg.verified.occupied(); n != 0 {
			t.Fatalf("set holds %d entries after an unregistered writer signed", n)
		}
		mustAdd(t, reg, 7, registered.Public)
		if ok, cost := reg.Judge("k", []byte("v"), stamp, sig); !ok || cost != Checked || checks.Load() != 1 {
			t.Errorf("first verdict once registered: ok=%v cost=%d after %d checks; want true, Checked, 1", ok, cost, checks.Load())
		}
	})
}

// TestVerifiedSetOverflow: with twice as many live tuples as the set has
// slots, eviction costs re-verification and nothing else — every genuine
// tuple is still accepted on every pass, every forgery refused, and each
// verdict is either a real check or a reuse.
func TestVerifiedSetOverflow(t *testing.T) {
	kp := testKey(t, 19)
	reg, checks := countingRegistry()
	mustAdd(t, reg, 7, kp.Public)
	const slots = setShards * shardPairs * 2
	tuples := make([]tuple, 2*slots+100)
	for i := range tuples {
		tuples[i] = signed(kp, fmt.Sprintf("k%05d", i%977), []byte{byte(i), byte(i >> 8)}, ts.Stamp{Counter: uint64(i + 1), Writer: 7})
	}
	for pass := 1; pass <= 2; pass++ {
		before := checks.Load()
		reused := 0
		for i, tp := range tuples {
			ok, cost := tp.judge(reg)
			if !ok {
				t.Fatalf("pass %d: genuine tuple %d refused", pass, i)
			}
			if cost == Reused {
				reused++
			}
		}
		checked := int(checks.Load() - before)
		if checked+reused != len(tuples) {
			t.Fatalf("pass %d: %d checks + %d reuses for %d tuples", pass, checked, reused, len(tuples))
		}
		if pass == 1 && reused != 0 {
			t.Errorf("pass 1 reused %d verdicts on tuples never seen before", reused)
		}
		if pass == 2 && (checked == 0 || reused > slots) {
			t.Errorf("pass 2: %d checks, %d reuses with %d slots: the set did not overflow", checked, reused, slots)
		}
	}
	if n := reg.verified.occupied(); n > slots || n < slots/2 {
		t.Errorf("set holds %d entries of %d slots after overflow", n, slots)
	}
	for i := 0; i < len(tuples); i += 7 {
		tp := tuples[i]
		tp.value = []byte{byte(i), byte(i>>8) ^ 0x80}
		if ok, cost := tp.judge(reg); ok || cost != Checked {
			t.Fatalf("forgery %d against a full set: ok=%v cost=%d; want false, Checked", i, ok, cost)
		}
	}
}

// TestRegistryHammer drives verdicts, sign-side notes and key rotation from
// many goroutines at once (run it under -race). Writer 1's key never
// changes, so every verdict on its tuples has one right answer; writer 2's
// key flips between two pairs, so a signature by either may or may not be
// current, but one by a key that was never registered must never pass.
func TestRegistryHammer(t *testing.T) {
	stable, flipA, flipB, never := testKey(t, 20), testKey(t, 21), testKey(t, 22), testKey(t, 23)
	reg := NewRegistry()
	mustAdd(t, reg, 1, stable.Public)
	mustAdd(t, reg, 2, flipA.Public)

	const tuples, rounds = 64, 300
	genuine := make([]tuple, tuples)
	forged := make([]tuple, tuples)
	rotating := make([]tuple, tuples)
	impostor := make([]tuple, tuples)
	for i := range genuine {
		value := []byte{byte(i)}
		genuine[i] = signed(stable, "k", value, ts.Stamp{Counter: uint64(i + 1), Writer: 1})
		forged[i] = genuine[i]
		forged[i].sig = append([]byte(nil), genuine[i].sig...)
		forged[i].sig[i%64] ^= 1
		signer := flipA
		if i%2 == 1 {
			signer = flipB
		}
		rotating[i] = signed(signer, "k", value, ts.Stamp{Counter: uint64(i + 1), Writer: 2})
		impostor[i] = signed(never, "k", value, ts.Stamp{Counter: uint64(i + 1), Writer: 2})
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (r*7 + g) % tuples
				if ok, _ := genuine[i].judge(reg); !ok {
					t.Errorf("genuine tuple %d refused", i)
				}
				if ok, _ := forged[i].judge(reg); ok {
					t.Errorf("forged tuple %d accepted", i)
				}
				rotating[i].judge(reg)
				if ok, _ := impostor[i].judge(reg); ok {
					t.Errorf("tuple %d signed by a never-registered key accepted", i)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				stamp := ts.Stamp{Counter: uint64(1000 + g*rounds + r), Writer: 1}
				sig := reg.SignEntry(stable.Private, "own", []byte{byte(r)}, stamp)
				if ok, cost := reg.Judge("own", []byte{byte(r)}, stamp, sig); !ok || cost == Rejected {
					t.Errorf("own write %v read back: ok=%v cost=%d", stamp, ok, cost)
				}
				// Signing as writer 2 under a key that is only sometimes the
				// registered one, and never with the impostor's.
				reg.SignEntry(flipA.Private, "own", []byte{byte(r)}, ts.Stamp{Counter: stamp.Counter, Writer: 2})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			pub := flipA.Public
			if r%2 == 0 {
				pub = flipB.Public
			}
			if err := reg.Add(2, pub); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()

	// Quiescent again, with flipA registered last: the set must agree with
	// plain Verify on everything it was shown.
	for i := range rotating {
		want := Verify(flipA.Public, rotating[i].key, rotating[i].value, rotating[i].stamp, rotating[i].sig)
		if ok, _ := rotating[i].judge(reg); ok != want {
			t.Errorf("rotating tuple %d after the dust settled: %v, plain Verify says %v", i, ok, want)
		}
	}
}

// benchSink keeps the benchmarked call from being optimised away.
var benchSink bool

// BenchmarkVerifyEntry prices the three verdicts a dissemination read meets:
// a genuine tuple never seen before (a real check plus the fingerprint), the
// same tuple again (the fingerprint alone), and a forgery under a signature
// of the right length (a real check every time).
func BenchmarkVerifyEntry(b *testing.B) {
	kp := testKey(b, 30)
	value := make([]byte, 36)
	fresh := func() (*Registry, []tuple) {
		reg := NewRegistry()
		mustAdd(b, reg, 1, kp.Public)
		// Fewer tuples than one pass can evict, so the set, once cleared,
		// has seen none of them.
		tuples := make([]tuple, 1024)
		for i := range tuples {
			tuples[i] = signed(kp, "k00000", value, ts.Stamp{Counter: uint64(i + 1), Writer: 1})
		}
		return reg, tuples
	}
	b.Run("first", func(b *testing.B) {
		reg, tuples := fresh()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(tuples) == 0 {
				reg.verified.clear()
			}
			tp := &tuples[i%len(tuples)]
			benchSink = reg.VerifyEntry(tp.key, tp.value, tp.stamp, tp.sig)
		}
	})
	b.Run("repeat", func(b *testing.B) {
		reg, tuples := fresh()
		tuples = tuples[:256] // the benchmark's signed workload has 256 keys
		for _, tp := range tuples {
			tp.judge(reg)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tp := &tuples[i%len(tuples)]
			benchSink = reg.VerifyEntry(tp.key, tp.value, tp.stamp, tp.sig)
		}
	})
	b.Run("forged64", func(b *testing.B) {
		reg, tuples := fresh()
		for i := range tuples {
			tuples[i].sig[i%32] ^= 1 << (i % 8)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tp := &tuples[i%len(tuples)]
			benchSink = reg.VerifyEntry(tp.key, tp.value, tp.stamp, tp.sig)
		}
	})
}
