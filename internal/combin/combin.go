// Package combin provides exact combinatorial and probabilistic primitives
// used throughout the probabilistic-quorum-system library.
//
// All heavy computations are carried out in log space so that quantities such
// as C(900, 450) or hypergeometric tail probabilities around 10^-40 remain
// representable. The package is pure math: it knows nothing about quorums.
// The quorum-specific probability formulas built on top of these primitives
// live in package core.
package combin

import "math"

// LnFactorial returns ln(n!). It panics if n is negative, since a negative
// factorial is a programming error rather than a data error.
func LnFactorial(n int) float64 {
	if n < 0 {
		panic("combin: LnFactorial of negative argument")
	}
	if n < len(lnFactTable) {
		return lnFactTable[n]
	}
	v, _ := math.Lgamma(float64(n) + 1)
	return v
}

// lnFactTable caches ln(n!) for small n where table lookup beats Lgamma and
// where exactness matters most (the values are exact for n <= 20 because the
// factorials are exactly representable in float64).
var lnFactTable = func() []float64 {
	t := make([]float64, 256)
	f := 1.0
	for n := 1; n < len(t); n++ {
		if n <= 170 {
			f *= float64(n)
			t[n] = math.Log(f)
		} else {
			v, _ := math.Lgamma(float64(n) + 1)
			t[n] = v
		}
	}
	return t
}()

// LnBinom returns ln C(n, k), the natural log of the binomial coefficient.
// It returns -Inf when the coefficient is zero (k < 0 or k > n).
func LnBinom(n, k int) float64 {
	if n < 0 {
		panic("combin: LnBinom with negative n")
	}
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	return LnFactorial(n) - LnFactorial(k) - LnFactorial(n-k)
}

// Binom returns C(n, k) as a float64. The result overflows to +Inf for very
// large coefficients; callers that need ratios of large coefficients should
// work with LnBinom instead.
func Binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	return math.Exp(LnBinom(n, k))
}

// HypergeomLnPMF returns ln P(X = k) where X follows the hypergeometric
// distribution counting marked items in a uniform sample: a sample of size
// draw is taken without replacement from a population of size pop containing
// marked marked items. Returns -Inf when k is impossible.
func HypergeomLnPMF(pop, marked, draw, k int) float64 {
	if pop < 0 || marked < 0 || marked > pop || draw < 0 || draw > pop {
		panic("combin: hypergeometric parameters outside domain")
	}
	if k < 0 || k > draw || k > marked || draw-k > pop-marked {
		return math.Inf(-1)
	}
	return LnBinom(marked, k) + LnBinom(pop-marked, draw-k) - LnBinom(pop, draw)
}

// HypergeomPMF returns P(X = k) for the hypergeometric distribution described
// at HypergeomLnPMF.
func HypergeomPMF(pop, marked, draw, k int) float64 {
	return math.Exp(HypergeomLnPMF(pop, marked, draw, k))
}

// HypergeomCDF returns P(X <= k) for the hypergeometric distribution.
// Probabilities are accumulated in linear space; all terms are non-negative
// and bounded by one, so the summation is stable.
func HypergeomCDF(pop, marked, draw, k int) float64 {
	if k < 0 {
		return 0
	}
	hi := draw
	if marked < hi {
		hi = marked
	}
	if k >= hi {
		return 1
	}
	// Sum the smaller tail for accuracy and speed.
	lo := 0
	if d := draw - (pop - marked); d > lo {
		lo = d
	}
	if k-lo <= hi-k {
		var sum float64
		for i := lo; i <= k; i++ {
			sum += HypergeomPMF(pop, marked, draw, i)
		}
		return clampProb(sum)
	}
	var sum float64
	for i := k + 1; i <= hi; i++ {
		sum += HypergeomPMF(pop, marked, draw, i)
	}
	return clampProb(1 - sum)
}

// HypergeomTailGE returns P(X >= k) for the hypergeometric distribution.
func HypergeomTailGE(pop, marked, draw, k int) float64 {
	return clampProb(1 - HypergeomCDF(pop, marked, draw, k-1))
}

// HypergeomMean returns E[X] = draw * marked / pop.
func HypergeomMean(pop, marked, draw int) float64 {
	if pop == 0 {
		return 0
	}
	return float64(draw) * float64(marked) / float64(pop)
}

// BinomialLnPMF returns ln P(X = k) for X ~ Binomial(n, p).
func BinomialLnPMF(n int, p float64, k int) float64 {
	if n < 0 || p < 0 || p > 1 {
		panic("combin: binomial parameters outside domain")
	}
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	switch p {
	case 0:
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	case 1:
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return LnBinom(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomialPMF(n int, p float64, k int) float64 {
	return math.Exp(BinomialLnPMF(n, p, k))
}

// BinomialTailGE returns P(X >= k) for X ~ Binomial(n, p), computed exactly
// by summing the smaller of the two tails.
func BinomialTailGE(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	mean := float64(n) * p
	if float64(k) >= mean {
		var sum float64
		for i := k; i <= n; i++ {
			sum += BinomialPMF(n, p, i)
		}
		return clampProb(sum)
	}
	var sum float64
	for i := 0; i < k; i++ {
		sum += BinomialPMF(n, p, i)
	}
	return clampProb(1 - sum)
}

// BinomialTailGT returns P(X > k) for X ~ Binomial(n, p).
func BinomialTailGT(n int, p float64, k int) float64 {
	return BinomialTailGE(n, p, k+1)
}

// ProbDisjoint returns the probability that two independent uniformly random
// subsets of sizes q1 and q2, drawn from a universe of size n, are disjoint:
//
//	P(Q1 ∩ Q2 = ∅) = C(n-q1, q2) / C(n, q2).
//
// This is the exact value of the non-intersection probability ε for the
// paper's R(n, q) construction (Section 3.4).
func ProbDisjoint(n, q1, q2 int) float64 {
	if q1 < 0 || q2 < 0 || q1 > n || q2 > n {
		panic("combin: ProbDisjoint parameters outside domain")
	}
	if q1 == 0 || q2 == 0 {
		return 1
	}
	if q1+q2 > n {
		return 0
	}
	return math.Exp(LnBinom(n-q1, q2) - LnBinom(n, q2))
}

// ProbIntersectWithin returns the probability that the intersection of two
// independent uniformly random q-subsets of an n-universe is entirely
// contained in a fixed set B of size b:
//
//	P(Q ∩ Q' ⊆ B).
//
// This is the exact ε for the (b, ε)-dissemination construction (Section 4):
// conditioning on x = |Q ∩ B| (hypergeometric), Q' must avoid the q-x
// elements of Q \ B.
func ProbIntersectWithin(n, q, b int) float64 {
	if q < 0 || q > n || b < 0 || b > n {
		panic("combin: ProbIntersectWithin parameters outside domain")
	}
	hi := q
	if b < hi {
		hi = b
	}
	var sum float64
	for x := 0; x <= hi; x++ {
		px := HypergeomPMF(n, b, q, x)
		if px == 0 {
			continue
		}
		outside := q - x // |Q \ B|
		var avoid float64
		if outside+q > n {
			avoid = 0
		} else {
			avoid = math.Exp(LnBinom(n-outside, q) - LnBinom(n, q))
		}
		sum += px * avoid
	}
	return clampProb(sum)
}

// MaskingErrExact returns the exact probability that the masking read
// protocol's threshold test fails for one read/write quorum pair
// (Definition 5.1 with the complement event):
//
//	1 - P( |Q ∩ B| < k  AND  |Q ∩ Q' \ B| >= k )
//
// where Q and Q' are independent uniform q-subsets of an n-universe and B is
// any fixed set of b (Byzantine) servers. Writing X = |Q ∩ B| and, given
// X = x, Y = |Q ∩ Q' \ B| ~ Hypergeometric(n, q-x, q) (Q' is independent of
// Q and must hit the q-x marked elements of Q \ B), the exact value is
//
//	1 - Σ_{x<k} P(X = x) · P(Y >= k | X = x).
func MaskingErrExact(n, q, b, k int) float64 {
	if q < 0 || q > n || b < 0 || b > n || k < 0 {
		panic("combin: MaskingErrExact parameters outside domain")
	}
	hiX := k - 1
	if q < hiX {
		hiX = q
	}
	if b < hiX {
		hiX = b
	}
	var good float64
	for x := 0; x <= hiX; x++ {
		px := HypergeomPMF(n, b, q, x)
		if px == 0 {
			continue
		}
		good += px * HypergeomTailGE(n, q-x, q, k)
	}
	return clampProb(1 - good)
}

// IntSqrt returns the integer square root of n (the largest s with s*s <= n).
func IntSqrt(n int) int {
	if n < 0 {
		panic("combin: IntSqrt of negative argument")
	}
	s := int(math.Sqrt(float64(n)))
	for s > 0 && s*s > n {
		s--
	}
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

// IsPerfectSquare reports whether n is a perfect square.
func IsPerfectSquare(n int) bool {
	if n < 0 {
		return false
	}
	s := IntSqrt(n)
	return s*s == n
}

// clampProb forces small floating-point excursions back into [0, 1].
func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
