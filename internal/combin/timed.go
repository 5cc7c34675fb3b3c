package combin

import "math"

// TimedEpsilon returns the time-decayed non-intersection bound for a
// probabilistic quorum access under churn, after the model of timed quorum
// systems (Gramoli & Raynal, "Timed Quorum System for Large-Scale and
// Dynamic Environments", arXiv 0802.0552): a write quorum's validity decays
// as members depart, because departed (replaced) servers no longer hold the
// written value.
//
// The model: a write landed on a uniformly random write quorum of size qw in
// an n-universe; since then, `departures` membership departures occurred,
// each removing a uniformly random live server (replacements arrive empty).
// Every member of the write quorum therefore survives independently with
// probability ps = max(0, 1-departures/n), so the surviving copy count is
// Binomial(qw, ps), and a fresh uniformly random read quorum of size qr
// misses all survivors with probability
//
//	ε(D) = Σ_{j=0..qw} C(qw,j) ps^j (1-ps)^(qw-j) · ProbDisjoint(n, j, qr).
//
// The binomial survivor model upper-bounds the exchangeable
// (hypergeometric) departure process — ProbDisjoint is convex and
// decreasing in j, and the binomial mixture has the same mean but more
// spread — and counting repeat departures of the same slot separately only
// lowers ps further, so ε(D) is conservative for the simulated churn
// drivers. ε(0) is exactly the static miss probability
// ProbDisjoint(n, qw, qr), and ε(D) → 1 as D → n.
func TimedEpsilon(n, qw, qr, departures int) float64 {
	if qw < 0 || qr < 0 || qw > n || qr > n {
		panic("combin: TimedEpsilon parameters outside domain")
	}
	if departures <= 0 {
		return ProbDisjoint(n, qw, qr)
	}
	if departures >= n {
		return 1
	}
	ps := 1 - float64(departures)/float64(n)
	var sum float64
	for j := 0; j <= qw; j++ {
		w := BinomialPMF(qw, ps, j)
		if w == 0 {
			continue
		}
		sum += w * ProbDisjoint(n, j, qr)
	}
	return clampProb(sum)
}

// groupedExactWorkCap bounds the truncated-convolution work (k · Σ min(m,k)
// multiply-adds) for the exact grouped tail; larger instances fall back to
// the conservative Hoeffding bound.
const groupedExactWorkCap = 1 << 26

// GroupedBinomialTailGE returns P(X ≥ k) where X = Σ_g Binomial(ms[g],
// ps[g]) is a sum of independent binomial groups — the null distribution of
// the total stale-read count when reads are bucketed by churn depth D and
// each bucket g of ms[g] reads carries its own timed bound ps[g] =
// TimedEpsilon-derived ε. It is the grouped generalization of
// BinomialTailGE, used by the chaos checker's timed verdict.
//
// For small instances the tail is exact: the distribution of X truncated at
// k is built by convolving per-group PMFs (computed in log space, so groups
// whose (1-p)^m underflows still contribute correctly). When the
// truncated-convolution work would exceed groupedExactWorkCap the function
// falls back to a conservative upper bound on the p-value: 1 if k is at or
// below the mean, else the Hoeffding bound exp(-2(k-μ)²/Σm). The fallback
// only ever over-estimates the tail, so a checker comparing it against a
// significance level can fail spuriously never — only pass spuriously, by
// at most the slack of Hoeffding.
func GroupedBinomialTailGE(ms []int, ps []float64, k int) float64 {
	if len(ms) != len(ps) {
		panic("combin: GroupedBinomialTailGE group length mismatch")
	}
	total := 0
	mean := 0.0
	work := 0
	for i, m := range ms {
		if m < 0 || ps[i] < 0 || ps[i] > 1 {
			panic("combin: GroupedBinomialTailGE parameters outside domain")
		}
		total += m
		mean += float64(m) * ps[i]
		if m < k {
			work += m
		} else {
			work += k
		}
	}
	if k <= 0 {
		return 1
	}
	if k > total {
		return 0
	}
	if k*work <= groupedExactWorkCap {
		return groupedTailExact(ms, ps, k)
	}
	if float64(k) <= mean {
		return 1
	}
	dev := float64(k) - mean
	return clampProb(math.Exp(-2 * dev * dev / float64(total)))
}

// groupedTailExact computes P(Σ_g Binomial(ms[g], ps[g]) ≥ k) by truncated
// convolution: probs[i] tracks P(X = i) for i < k, and tail the mass at or
// above k, which a group adds to as Σ_i probs[i]·P(Y_g ≥ k-i). Every term is
// a sum of non-negative ones, so a tail far below 1e-16 keeps its digits;
// 1 - Σ probs would read every tail below about 1e-13 as rounding error.
func groupedTailExact(ms []int, ps []float64, k int) float64 {
	probs := make([]float64, k)
	probs[0] = 1
	scratch := make([]float64, k)
	var tail float64
	for g, m := range ms {
		p := ps[g]
		if p == 0 || m == 0 {
			continue
		}
		jmax := m
		if jmax > k-1 {
			jmax = k - 1
		}
		pmf := make([]float64, jmax+1)
		for j := 0; j <= jmax; j++ {
			pmf[j] = math.Exp(BinomialLnPMF(m, p, j))
		}
		// above[t] = P(Y_g ≥ t) for t = 1..k, summed upwards from the
		// group's own tail at k.
		above := make([]float64, k+1)
		above[k] = BinomialTailGE(m, p, k)
		for t := k - 1; t >= 1; t-- {
			above[t] = above[t+1]
			if t <= jmax {
				above[t] += pmf[t]
			}
		}
		for i := 0; i < k; i++ {
			tail += probs[i] * above[k-i]
			var s float64
			hi := i
			if hi > jmax {
				hi = jmax
			}
			for j := 0; j <= hi; j++ {
				s += probs[i-j] * pmf[j]
			}
			scratch[i] = s
		}
		probs, scratch = scratch, probs
	}
	return clampProb(tail)
}
