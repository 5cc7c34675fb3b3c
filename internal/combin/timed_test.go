package combin

import (
	"math"
	"testing"
)

func TestTimedEpsilonEndpoints(t *testing.T) {
	n, qw, qr := 100, 25, 25
	base := ProbDisjoint(n, qw, qr)
	if got := TimedEpsilon(n, qw, qr, 0); got != base {
		t.Fatalf("TimedEpsilon(D=0) = %g, want static bound %g", got, base)
	}
	if got := TimedEpsilon(n, qw, qr, -3); got != base {
		t.Fatalf("TimedEpsilon(D<0) = %g, want static bound %g", got, base)
	}
	if got := TimedEpsilon(n, qw, qr, n); got != 1 {
		t.Fatalf("TimedEpsilon(D=n) = %g, want 1", got)
	}
	if got := TimedEpsilon(n, qw, qr, 10*n); got != 1 {
		t.Fatalf("TimedEpsilon(D>n) = %g, want 1", got)
	}
}

func TestTimedEpsilonMonotoneInDepartures(t *testing.T) {
	n, qw, qr := 1000, 64, 64
	prev := -1.0
	for _, d := range []int{0, 10, 50, 100, 250, 500, 900, 999} {
		eps := TimedEpsilon(n, qw, qr, d)
		if eps < prev {
			t.Fatalf("TimedEpsilon not monotone: ε(%d) = %g < previous %g", d, eps, prev)
		}
		if eps < 0 || eps > 1 {
			t.Fatalf("TimedEpsilon(%d) = %g outside [0,1]", d, eps)
		}
		prev = eps
	}
	// Heavy churn must dominate the static bound decisively.
	if base, heavy := TimedEpsilon(n, qw, qr, 0), TimedEpsilon(n, qw, qr, 800); heavy < 10*base {
		t.Fatalf("ε(800) = %g not well above base %g", heavy, base)
	}
}

func TestTimedEpsilonAgainstDirectSum(t *testing.T) {
	// Small enough to recompute the mixture naively with explicit binomials.
	n, qw, qr, d := 20, 5, 6, 7
	ps := 1 - float64(d)/float64(n)
	want := 0.0
	for j := 0; j <= qw; j++ {
		w := Binom(qw, j) * math.Pow(ps, float64(j)) * math.Pow(1-ps, float64(qw-j))
		want += w * ProbDisjoint(n, j, qr)
	}
	got := TimedEpsilon(n, qw, qr, d)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TimedEpsilon = %g, direct sum = %g", got, want)
	}
}

func TestGroupedBinomialTailGESingleGroupMatchesBinomial(t *testing.T) {
	n, p := 200, 0.07
	for _, k := range []int{0, 1, 5, 14, 30, 200, 201} {
		want := BinomialTailGE(n, p, k)
		got := GroupedBinomialTailGE([]int{n}, []float64{p}, k)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("k=%d: grouped = %g, single binomial = %g", k, got, want)
		}
	}
	// Tails far below what 1 - P(X < k) can resolve keep their digits:
	// 2 400 reads at ε = 0.005 with 56 stale is a p-value of 2e-20.
	n, p = 2400, 0.005
	for _, k := range []int{12, 20, 30, 40, 48, 56} {
		want := BinomialTailGE(n, p, k)
		got := GroupedBinomialTailGE([]int{n}, []float64{p}, k)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("k=%d: grouped = %g, single binomial = %g", k, got, want)
		}
		if k == 56 && want > 1e-19 {
			t.Fatalf("k=56: the tail is %g, want about 2e-20", want)
		}
	}
}

func TestGroupedBinomialTailGEConvolution(t *testing.T) {
	// Two groups small enough to enumerate the joint distribution exactly.
	ms := []int{4, 3}
	ps := []float64{0.3, 0.6}
	for k := 0; k <= 8; k++ {
		want := 0.0
		for a := 0; a <= ms[0]; a++ {
			for b := 0; b <= ms[1]; b++ {
				if a+b >= k {
					want += BinomialPMF(ms[0], ps[0], a) * BinomialPMF(ms[1], ps[1], b)
				}
			}
		}
		got := GroupedBinomialTailGE(ms, ps, k)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("k=%d: grouped = %g, enumeration = %g", k, got, want)
		}
	}
}

func TestGroupedBinomialTailGEUnderflowGroup(t *testing.T) {
	// A group with m·ln(1-p) far below the float64 exponent range: the
	// per-term log-space PMF must keep the convolution meaningful. With
	// mean 2000 in the big group, P(X ≥ 10) is essentially 1.
	ms := []int{2_000_000, 10}
	ps := []float64{1e-3, 0.5}
	got := GroupedBinomialTailGE(ms, ps, 10)
	if got < 0.999999 {
		t.Fatalf("tail with huge-mean group = %g, want ≈ 1", got)
	}
}

func TestGroupedBinomialTailGEFallback(t *testing.T) {
	// Force the Hoeffding fallback with instances beyond the exact work cap.
	ms := []int{5_000_000, 5_000_000}
	ps := []float64{0.01, 0.02}
	mean := 0.01*5e6 + 0.02*5e6 // 150k
	// At the mean the conservative fallback must return 1.
	if got := GroupedBinomialTailGE(ms, ps, int(mean)); got != 1 {
		t.Fatalf("fallback at mean = %g, want 1", got)
	}
	// Far above the mean it must be decisively small, and bounded by
	// Hoeffding.
	k := 400_000
	got := GroupedBinomialTailGE(ms, ps, k)
	dev := float64(k) - mean
	hoeffding := math.Exp(-2 * dev * dev / 1e7)
	if got > hoeffding {
		t.Fatalf("fallback tail %g exceeds Hoeffding bound %g", got, hoeffding)
	}
	if got > 1e-4 {
		t.Fatalf("fallback tail %g not decisive", got)
	}
}

func TestGroupedBinomialTailGEDomain(t *testing.T) {
	if got := GroupedBinomialTailGE(nil, nil, 0); got != 1 {
		t.Fatalf("empty groups k=0: %g, want 1", got)
	}
	if got := GroupedBinomialTailGE(nil, nil, 1); got != 0 {
		t.Fatalf("empty groups k=1: %g, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	GroupedBinomialTailGE([]int{1}, nil, 1)
}
