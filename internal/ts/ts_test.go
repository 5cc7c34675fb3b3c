package ts

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestStampOrder(t *testing.T) {
	cases := []struct {
		a, b Stamp
		cmp  int
	}{
		{Stamp{}, Stamp{}, 0},
		{Stamp{}, Stamp{Counter: 1}, -1},
		{Stamp{Counter: 1, Writer: 0}, Stamp{Counter: 1, Writer: 1}, -1},
		{Stamp{Counter: 2, Writer: 0}, Stamp{Counter: 1, Writer: 9}, 1},
		{Stamp{Counter: 5, Writer: 3}, Stamp{Counter: 5, Writer: 3}, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.cmp {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.cmp)
		}
		if got := c.b.Compare(c.a); got != -c.cmp {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.cmp)
		}
	}
}

func TestStampTotalOrderProperties(t *testing.T) {
	// Antisymmetry and totality: exactly one of a<b, b<a, a==b.
	f := func(c1, c2 uint64, w1, w2 uint32) bool {
		a := Stamp{Counter: c1, Writer: w1}
		b := Stamp{Counter: c2, Writer: w2}
		lt, gt, eq := a.Less(b), b.Less(a), a == b
		count := 0
		for _, v := range []bool{lt, gt, eq} {
			if v {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStampTransitivity(t *testing.T) {
	f := func(c1, c2, c3 uint64, w1, w2, w3 uint32) bool {
		a := Stamp{Counter: c1 % 8, Writer: w1 % 4}
		b := Stamp{Counter: c2 % 8, Writer: w2 % 4}
		c := Stamp{Counter: c3 % 8, Writer: w3 % 4}
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIsZero(t *testing.T) {
	if !(Stamp{}).IsZero() {
		t.Error("zero stamp should be zero")
	}
	if (Stamp{Counter: 1}).IsZero() || (Stamp{Writer: 1}).IsZero() {
		t.Error("non-zero stamps misclassified")
	}
	// The zero stamp orders before anything a clock produces.
	c := NewClock(0)
	if !(Stamp{}).Less(c.Next()) {
		t.Error("zero stamp must order before first clock stamp")
	}
}

func TestClockMonotone(t *testing.T) {
	c := NewClock(7)
	if c.Writer() != 7 {
		t.Errorf("Writer = %d", c.Writer())
	}
	prev := Stamp{}
	for i := 0; i < 1000; i++ {
		s := c.Next()
		if !prev.Less(s) {
			t.Fatalf("stamp %v not after %v", s, prev)
		}
		if s.Writer != 7 {
			t.Fatalf("stamp writer %d", s.Writer)
		}
		prev = s
	}
}

func TestClockWitness(t *testing.T) {
	c := NewClock(1)
	c.Witness(Stamp{Counter: 100, Writer: 2})
	if s := c.Next(); s.Counter != 101 {
		t.Errorf("after witness, Next = %v, want counter 101", s)
	}
	// Witnessing something old must not move the clock backwards.
	c.Witness(Stamp{Counter: 5, Writer: 9})
	if s := c.Next(); s.Counter != 102 {
		t.Errorf("after stale witness, Next = %v, want counter 102", s)
	}
}

// TestClockWitnessNeverWraps: a witnessed counter near MaxUint64 cannot wrap
// the clock to 0, which would make every later write of the writer lose; a
// counter at the cap is still adopted.
func TestClockWitnessNeverWraps(t *testing.T) {
	c := NewClock(1)
	first := c.Next()
	for _, counter := range []uint64{math.MaxUint64, math.MaxUint64 - 1, witnessCap + 1} {
		c.Witness(Stamp{Counter: counter, Writer: 2})
		if s := c.Next(); !first.Less(s) {
			t.Fatalf("after witnessing counter %d, Next = %v, not after %v", counter, s, first)
		}
	}
	c.Witness(Stamp{Counter: witnessCap, Writer: 2})
	if s := c.Next(); s.Counter != witnessCap+1 {
		t.Errorf("after witnessing the cap, Next = %v, want counter %d", s, uint64(witnessCap)+1)
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock(3)
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	out := make([][]Stamp, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				out[g] = append(out[g], c.Next())
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[Stamp]bool)
	for _, stamps := range out {
		for i, s := range stamps {
			if seen[s] {
				t.Fatalf("duplicate stamp %v", s)
			}
			seen[s] = true
			if i > 0 && !stamps[i-1].Less(s) {
				t.Fatalf("per-goroutine order violated: %v then %v", stamps[i-1], s)
			}
		}
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("expected %d distinct stamps, got %d", goroutines*perG, len(seen))
	}
}

func TestString(t *testing.T) {
	if got := (Stamp{Counter: 12, Writer: 4}).String(); got != "12@4" {
		t.Errorf("String = %q", got)
	}
}
