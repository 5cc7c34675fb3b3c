package combin

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestLnFactorialSmall(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880}
	for n, w := range want {
		got := math.Exp(LnFactorial(n))
		if !almostEqual(got, w, 1e-12) {
			t.Errorf("exp(LnFactorial(%d)) = %v, want %v", n, got, w)
		}
	}
}

func TestLnFactorialLargeMatchesLgamma(t *testing.T) {
	for _, n := range []int{100, 255, 256, 300, 1000, 100000} {
		want, _ := math.Lgamma(float64(n) + 1)
		if got := LnFactorial(n); !almostEqual(got, want, 1e-12) {
			t.Errorf("LnFactorial(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestLnFactorialPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative argument")
		}
	}()
	LnFactorial(-1)
}

func TestBinomSmallValues(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1},
		{5, 0, 1},
		{5, 5, 1},
		{5, 2, 10},
		{10, 3, 120},
		{25, 9, 2042975},
		{52, 5, 2598960},
		{5, 6, 0},
		{5, -1, 0},
	}
	for _, c := range cases {
		if got := Binom(c.n, c.k); !almostEqual(got, c.want, 1e-10) {
			t.Errorf("Binom(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestLnBinomSymmetry(t *testing.T) {
	f := func(n, k uint8) bool {
		nn := int(n%200) + 1
		kk := int(k) % (nn + 1)
		return almostEqual(LnBinom(nn, kk), LnBinom(nn, nn-kk), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLnBinomPascalIdentity(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) verified in linear space for moderate n.
	for n := 2; n <= 60; n++ {
		for k := 1; k < n; k++ {
			lhs := Binom(n, k)
			rhs := Binom(n-1, k-1) + Binom(n-1, k)
			if !almostEqual(lhs, rhs, 1e-9) {
				t.Fatalf("Pascal identity failed at n=%d k=%d: %v vs %v", n, k, lhs, rhs)
			}
		}
	}
}

func TestHypergeomPMFSumsToOne(t *testing.T) {
	cases := []struct{ pop, marked, draw int }{
		{10, 3, 4}, {20, 10, 5}, {100, 30, 22}, {7, 7, 3}, {9, 0, 4},
	}
	for _, c := range cases {
		var sum float64
		for k := 0; k <= c.draw; k++ {
			sum += HypergeomPMF(c.pop, c.marked, c.draw, k)
		}
		if !almostEqual(sum, 1, 1e-10) {
			t.Errorf("hypergeom(%d,%d,%d) pmf sums to %v", c.pop, c.marked, c.draw, sum)
		}
	}
}

func TestHypergeomAgainstDirectCount(t *testing.T) {
	// For pop=6, marked=3, draw=3: P(X=k) = C(3,k) C(3,3-k) / C(6,3).
	total := 20.0
	want := []float64{1 / total, 9 / total, 9 / total, 1 / total}
	for k, w := range want {
		if got := HypergeomPMF(6, 3, 3, k); !almostEqual(got, w, 1e-12) {
			t.Errorf("HypergeomPMF(6,3,3,%d) = %v, want %v", k, got, w)
		}
	}
}

func TestHypergeomCDFProperties(t *testing.T) {
	pop, marked, draw := 50, 20, 15
	prev := 0.0
	for k := -1; k <= draw+1; k++ {
		c := HypergeomCDF(pop, marked, draw, k)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at k=%d: %v < %v", k, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF out of range at k=%d: %v", k, c)
		}
		prev = c
	}
	if got := HypergeomCDF(pop, marked, draw, draw); got != 1 {
		t.Errorf("CDF at max = %v, want 1", got)
	}
	// CDF + strict upper tail must equal 1.
	for k := 0; k <= draw; k++ {
		s := HypergeomCDF(pop, marked, draw, k) + HypergeomTailGE(pop, marked, draw, k+1)
		if !almostEqual(s, 1, 1e-10) {
			t.Errorf("CDF+tail = %v at k=%d", s, k)
		}
	}
}

func TestHypergeomMean(t *testing.T) {
	// E[X] = draw*marked/pop, verified against the PMF.
	pop, marked, draw := 40, 12, 9
	var mean float64
	for k := 0; k <= draw; k++ {
		mean += float64(k) * HypergeomPMF(pop, marked, draw, k)
	}
	if want := HypergeomMean(pop, marked, draw); !almostEqual(mean, want, 1e-10) {
		t.Errorf("mean via pmf %v, formula %v", mean, want)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{10, 0.3}, {50, 0.5}, {100, 0.01}, {7, 0}, {7, 1}} {
		var sum float64
		for k := 0; k <= c.n; k++ {
			sum += BinomialPMF(c.n, c.p, k)
		}
		if !almostEqual(sum, 1, 1e-10) {
			t.Errorf("binomial(%d,%v) pmf sums to %v", c.n, c.p, sum)
		}
	}
}

func TestBinomialTailEdges(t *testing.T) {
	if got := BinomialTailGE(10, 0.4, 0); got != 1 {
		t.Errorf("TailGE k=0: %v", got)
	}
	if got := BinomialTailGE(10, 0.4, 11); got != 0 {
		t.Errorf("TailGE k>n: %v", got)
	}
	if got := BinomialTailGE(10, 0, 1); got != 0 {
		t.Errorf("TailGE p=0: %v", got)
	}
	if got := BinomialTailGE(10, 1, 10); got != 1 {
		t.Errorf("TailGE p=1: %v", got)
	}
	if got := BinomialTailGT(10, 1, 9); got != 1 {
		t.Errorf("TailGT p=1 k=9: %v", got)
	}
}

func TestBinomialTailMonotoneInK(t *testing.T) {
	n, p := 60, 0.37
	prev := 1.0
	for k := 0; k <= n+1; k++ {
		tail := BinomialTailGE(n, p, k)
		if tail > prev+1e-12 {
			t.Fatalf("tail increased at k=%d: %v > %v", k, tail, prev)
		}
		prev = tail
	}
}

func TestBinomialTailAgainstSymmetry(t *testing.T) {
	// For p = 1/2 the distribution is symmetric: P(X >= k) = P(X <= n-k).
	n := 31
	for k := 0; k <= n; k++ {
		a := BinomialTailGE(n, 0.5, k)
		var b float64
		for i := 0; i <= n-k; i++ {
			b += BinomialPMF(n, 0.5, i)
		}
		if !almostEqual(a, b, 1e-9) {
			t.Errorf("symmetry failed at k=%d: %v vs %v", k, a, b)
		}
	}
}

// subsets enumerates all subsets of {0..n-1} of size q as bitmasks.
func subsets(n, q int) []uint32 {
	var out []uint32
	var rec func(start int, chosen uint32, left int)
	rec = func(start int, chosen uint32, left int) {
		if left == 0 {
			out = append(out, chosen)
			return
		}
		for i := start; i <= n-left; i++ {
			rec(i+1, chosen|1<<uint(i), left-1)
		}
	}
	rec(0, 0, q)
	return out
}

func popcount(x uint32) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func TestProbDisjointBruteForce(t *testing.T) {
	for _, c := range []struct{ n, q int }{{6, 2}, {8, 3}, {9, 4}, {10, 2}} {
		qs := subsets(c.n, c.q)
		var disjoint, total int
		for _, a := range qs {
			for _, b := range qs {
				total++
				if a&b == 0 {
					disjoint++
				}
			}
		}
		want := float64(disjoint) / float64(total)
		if got := ProbDisjoint(c.n, c.q, c.q); !almostEqual(got, want, 1e-10) {
			t.Errorf("ProbDisjoint(%d,%d,%d) = %v, want %v", c.n, c.q, c.q, got, want)
		}
	}
}

func TestProbDisjointAsymmetric(t *testing.T) {
	// P(disjoint) must be symmetric in q1, q2 and 0 when q1+q2 > n.
	if got := ProbDisjoint(10, 6, 5); got != 0 {
		t.Errorf("overfull universe: %v", got)
	}
	a := ProbDisjoint(12, 3, 5)
	b := ProbDisjoint(12, 5, 3)
	if !almostEqual(a, b, 1e-12) {
		t.Errorf("asymmetric: %v vs %v", a, b)
	}
	if got := ProbDisjoint(10, 0, 5); got != 1 {
		t.Errorf("empty quorum: %v", got)
	}
}

func TestProbDisjointPaperValue(t *testing.T) {
	// n=25, q=9: C(16,9)/C(25,9) = 11440/2042975.
	want := 11440.0 / 2042975.0
	if got := ProbDisjoint(25, 9, 9); !almostEqual(got, want, 1e-12) {
		t.Errorf("ProbDisjoint(25,9,9) = %v, want %v", got, want)
	}
}

func TestProbIntersectWithinBruteForce(t *testing.T) {
	// B is always taken as the lowest b elements; by symmetry of the uniform
	// strategy the probability is the same for every B of size b.
	for _, c := range []struct{ n, q, b int }{{6, 2, 2}, {8, 3, 2}, {9, 3, 3}, {7, 3, 0}} {
		qs := subsets(c.n, c.q)
		bad := uint32(1<<uint(c.b)) - 1
		var hit, total int
		for _, a := range qs {
			for _, b2 := range qs {
				total++
				if a&b2&^bad == 0 { // intersection entirely inside B
					hit++
				}
			}
		}
		want := float64(hit) / float64(total)
		if got := ProbIntersectWithin(c.n, c.q, c.b); !almostEqual(got, want, 1e-10) {
			t.Errorf("ProbIntersectWithin(%d,%d,%d) = %v, want %v", c.n, c.q, c.b, got, want)
		}
	}
}

func TestProbIntersectWithinReducesToDisjoint(t *testing.T) {
	// With b = 0 the event "intersection ⊆ ∅" is exactly disjointness.
	for _, c := range []struct{ n, q int }{{10, 3}, {30, 7}, {100, 10}} {
		a := ProbIntersectWithin(c.n, c.q, 0)
		b := ProbDisjoint(c.n, c.q, c.q)
		if !almostEqual(a, b, 1e-12) {
			t.Errorf("n=%d q=%d: %v vs %v", c.n, c.q, a, b)
		}
	}
}

func TestProbIntersectWithinMonotoneInB(t *testing.T) {
	n, q := 64, 16
	prev := 0.0
	for b := 0; b <= n; b += 4 {
		p := ProbIntersectWithin(n, q, b)
		if p < prev-1e-12 {
			t.Fatalf("not monotone in b at b=%d: %v < %v", b, p, prev)
		}
		prev = p
	}
	if got := ProbIntersectWithin(n, q, n); got != 1 {
		t.Errorf("b=n should be certain: %v", got)
	}
}

func TestMaskingErrExactBruteForce(t *testing.T) {
	for _, c := range []struct{ n, q, b, k int }{
		{6, 3, 1, 1}, {8, 4, 2, 2}, {9, 4, 2, 1}, {8, 3, 0, 1},
	} {
		qs := subsets(c.n, c.q)
		bad := uint32(1<<uint(c.b)) - 1
		var ok, total int
		for _, a := range qs {
			for _, b2 := range qs {
				total++
				x := popcount(a & bad)
				y := popcount(a & b2 &^ bad)
				if x < c.k && y >= c.k {
					ok++
				}
			}
		}
		want := 1 - float64(ok)/float64(total)
		if got := MaskingErrExact(c.n, c.q, c.b, c.k); !almostEqual(got, want, 1e-10) {
			t.Errorf("MaskingErrExact(%d,%d,%d,%d) = %v, want %v", c.n, c.q, c.b, c.k, got, want)
		}
	}
}

func TestMaskingErrExactEdges(t *testing.T) {
	// k = 0 means |Q∩B| < 0 is impossible: error probability 1.
	if got := MaskingErrExact(10, 4, 2, 0); got != 1 {
		t.Errorf("k=0: %v", got)
	}
	// A huge k can never be met by the intersection: error probability 1.
	if got := MaskingErrExact(10, 4, 2, 9); got != 1 {
		t.Errorf("k>q: %v", got)
	}
	// No Byzantine servers, k=1: error iff quorums disjoint.
	got := MaskingErrExact(20, 6, 0, 1)
	want := ProbDisjoint(20, 6, 6)
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("b=0,k=1: %v want %v", got, want)
	}
}

func TestIntSqrt(t *testing.T) {
	for n := 0; n <= 10000; n++ {
		s := IntSqrt(n)
		if s*s > n || (s+1)*(s+1) <= n {
			t.Fatalf("IntSqrt(%d) = %d", n, s)
		}
	}
	if !IsPerfectSquare(0) || !IsPerfectSquare(900) || IsPerfectSquare(899) || IsPerfectSquare(-4) {
		t.Error("IsPerfectSquare misclassified")
	}
}

func TestIntSqrtQuick(t *testing.T) {
	f := func(x uint32) bool {
		n := int(x % 10_000_000)
		s := IntSqrt(n)
		return s*s <= n && (s+1)*(s+1) > n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampProbThroughPublicAPI(t *testing.T) {
	// Probabilities returned by public helpers must lie in [0,1] for a sweep
	// of parameters, including ones prone to rounding.
	for n := 1; n <= 40; n += 3 {
		for q := 0; q <= n; q += 2 {
			for b := 0; b <= n; b += 5 {
				p := ProbIntersectWithin(n, q, b)
				if p < 0 || p > 1 {
					t.Fatalf("out of range: n=%d q=%d b=%d p=%v", n, q, b, p)
				}
			}
		}
	}
}
