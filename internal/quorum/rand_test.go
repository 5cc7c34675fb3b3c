package quorum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pqs/internal/combin"
)

// TestStreamsFollowTheLaw holds NewRand's streams to the paper's law. Each
// row makes 11 000 pairs of streams, and each stream of a pair draws its first
// quorum of R(50, 10) through Uniform.PickInto. A row of one kind pairs
// (seed 1, kind, 2i) with (1, kind, 2i+1), as a harness seeds its clients;
// a cross-kind row pairs (1, kind A, i) with (1, kind B, i), for every two
// kinds. Two checks per row:
//
//   - the share of pairs whose quorums miss each other, by an exact
//     two-sided binomial test against ε = C(40,10)/C(50,10), the Epsilon()
//     of the R(50, 10) construction;
//   - per-server inclusion, by a chi-square test against q/n.
//
// Both run at α = 1e-6 and are sized to catch a 25 % relative bias with
// power ≥ 0.99 (the test computes and logs that power, and fails if its own
// sizing falls short). For inclusion the bias is one server drawn at
// 1.25·q/n, the others evenly below. A key that drops the index, or keys
// two kinds with the same bytes, makes the paired streams one stream, and
// fails it.
func TestStreamsFollowTheLaw(t *testing.T) {
	const (
		n, q  = 50, 10
		pairs = 11000
		seed  = 1
		alpha = 1e-6
		bias  = 0.25
	)
	sys, err := NewUniform(n, q)
	if err != nil {
		t.Fatal(err)
	}
	eps := combin.ProbDisjoint(n, q, q)
	lo, hi := binomialAcceptance(pairs, eps, alpha)
	power := min(binomialRejects(pairs, eps*(1-bias), lo, hi), binomialRejects(pairs, eps*(1+bias), lo, hi))
	if power < 0.99 {
		t.Fatalf("%d pairs catch a %.0f %% bias in ε with power %.4f; want ≥ 0.99", pairs, 100*bias, power)
	}
	// A quorum holds q distinct servers, so one quorum's inclusion vector
	// has covariance p(1−p)·n/(n−1)·(I − J/n), p = q/n: the Pearson sum
	// scaled by (n−1)/(n·(1−p)) is χ² with n−1 degrees of freedom.
	draws, p, df := float64(2*pairs), float64(q)/n, float64(n-1)
	crit := chi2Quantile(df, alpha)
	lambda := draws * bias * bias * p / (1 - p)
	// Patnaik: a noncentral χ²(df, λ) is about c·χ²(ν).
	c, nu := (df+2*lambda)/(df+lambda), (df+lambda)*(df+lambda)/(df+2*lambda)
	chiPower := chi2Survival(crit/c, nu)
	if chiPower < 0.99 {
		t.Fatalf("%v quorums catch a %.0f %% inclusion bias with power %.4f; want ≥ 0.99", draws, 100*bias, chiPower)
	}
	t.Logf("per row: disjoint pairs accepted in [%d, %d] of %d around ε = %.5f, power %.4f; χ² critical %.1f on %v df, power %.4f (against a %.0f %% bias)",
		lo, hi, pairs, eps, power, crit, df, chiPower, 100*bias)

	row := func(t *testing.T, pair func(i int) (a, b *rand.Rand)) {
		var included [n]int
		disjoint := 0
		a, b := make([]ServerID, 0, q), make([]ServerID, 0, q)
		for i := 0; i < pairs; i++ {
			ra, rb := pair(i)
			a, b = sys.PickInto(ra, a), sys.PickInto(rb, b)
			var inA [n]bool
			for _, s := range a {
				inA[s] = true
				included[s]++
			}
			meet := false
			for _, s := range b {
				meet = meet || inA[s]
				included[s]++
			}
			if !meet {
				disjoint++
			}
		}
		var x2 float64
		for _, c := range included {
			d := float64(c) - draws*p
			x2 += d * d
		}
		x2 *= df / (draws * p * (1 - p) * n)
		t.Logf("disjoint: %d of %d pairs (%.5f); χ² = %.1f", disjoint, pairs, float64(disjoint)/pairs, x2)
		if disjoint < lo || disjoint > hi {
			t.Errorf("%d of %d stream pairs drew disjoint quorums, outside [%d, %d]: ε = %.5f, exact %.5f",
				disjoint, pairs, lo, hi, float64(disjoint)/pairs, eps)
		}
		if x2 > crit {
			t.Errorf("per-server inclusion departs from q/n: χ² = %.1f on %v df, above %.1f (α = %g)", x2, df, crit, alpha)
		}
	}
	for k := StreamClient; k <= StreamCrashes; k++ {
		t.Run(fmt.Sprintf("kind=%d", k), func(t *testing.T) {
			t.Parallel()
			row(t, func(i int) (*rand.Rand, *rand.Rand) {
				return NewRand(seed, k, uint64(2*i)), NewRand(seed, k, uint64(2*i+1))
			})
		})
		for k2 := k + 1; k2 <= StreamCrashes; k2++ {
			t.Run(fmt.Sprintf("kinds=%d,%d", k, k2), func(t *testing.T) {
				t.Parallel()
				row(t, func(i int) (*rand.Rand, *rand.Rand) {
					return NewRand(seed, k, uint64(i)), NewRand(seed, k2, uint64(i))
				})
			})
		}
	}
}

// binomialAcceptance returns the acceptance region [lo, hi] of the exact
// two-sided level-alpha test of Binomial(m, p): each tail outside it holds
// at most alpha/2.
func binomialAcceptance(m int, p, alpha float64) (lo, hi int) {
	lo, hi = 0, m
	for tail := combin.BinomialPMF(m, p, lo); tail <= alpha/2; tail += combin.BinomialPMF(m, p, lo) {
		lo++
	}
	for tail := combin.BinomialPMF(m, p, hi); tail <= alpha/2; tail += combin.BinomialPMF(m, p, hi) {
		hi--
	}
	return lo, hi
}

// binomialRejects is the probability that Binomial(m, p) falls outside
// [lo, hi].
func binomialRejects(m int, p float64, lo, hi int) float64 {
	in := 0.0
	for k := lo; k <= hi; k++ {
		in += combin.BinomialPMF(m, p, k)
	}
	return 1 - in
}

// chi2Survival is P(χ²(k) > x) by Wilson and Hilferty's cube-root normal
// approximation; chi2Quantile inverts it.
func chi2Survival(x, k float64) float64 {
	v := 2 / (9 * k)
	return math.Erfc((math.Cbrt(x/k)-(1-v))/math.Sqrt(v)/math.Sqrt2) / 2
}

func chi2Quantile(k, alpha float64) float64 {
	v := 2 / (9 * k)
	z := math.Sqrt2 * math.Erfcinv(2*alpha)
	return k * math.Pow(1-v+z*math.Sqrt(v), 3)
}
