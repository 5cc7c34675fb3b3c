// Package core implements the probabilistic quorum systems of Malkhi,
// Reiter, Wool and Wright: ε-intersecting quorum systems (Section 3),
// (b, ε)-dissemination quorum systems (Section 4) and (b, ε)-masking quorum
// systems (Section 5), all instantiated over the uniform construction
// R(n, q) / R_k(n, q) of Definitions 3.13 and 5.6.
//
// Each construction exposes two ε values: Epsilon, the exact
// non-intersection (or threshold-failure) probability computed from
// hypergeometric identities, and EpsilonBound, the closed-form bound the
// paper proves (Theorems 3.16, 4.4, 4.6 and 5.10). The exact value is always
// at most the bound; tests enforce this.
//
// The package also provides the paper's lower bounds on load
// (Theorems 3.9 and 5.5, and the strict-system bounds of Table 1) and
// solvers that pick the smallest quorum size achieving a target ε.
package core

import (
	"fmt"
	"math"

	"pqs/internal/combin"
	"pqs/internal/quorum"
)

// EpsilonIntersecting is the ε-intersecting quorum system R(n, ℓ√n) of
// Section 3.4: all q-subsets of the universe under the uniform access
// strategy. It embeds the carrier set system and adds the probabilistic
// consistency analysis.
type EpsilonIntersecting struct {
	*quorum.Uniform
}

// NewEpsilonIntersecting returns R(n, q) viewed as an ε-intersecting quorum
// system.
func NewEpsilonIntersecting(n, q int) (*EpsilonIntersecting, error) {
	u, err := quorum.NewUniform(n, q)
	if err != nil {
		return nil, err
	}
	return &EpsilonIntersecting{Uniform: u}, nil
}

// NewEpsilonIntersectingEll returns R(n, round(ℓ√n)), the paper's preferred
// parameterization. Rounding to nearest reproduces every quorum size in
// Tables 2-4 for the paper's ℓ values.
func NewEpsilonIntersectingEll(n int, ell float64) (*EpsilonIntersecting, error) {
	if ell <= 0 {
		return nil, fmt.Errorf("core: ell %v must be positive", ell)
	}
	return NewEpsilonIntersecting(n, QFromEll(n, ell))
}

// QFromEll converts the paper's ℓ parameter to a quorum size, q = round(ℓ√n).
func QFromEll(n int, ell float64) int {
	return int(math.Round(ell * math.Sqrt(float64(n))))
}

// Ell returns ℓ = q/√n.
func (e *EpsilonIntersecting) Ell() float64 {
	return float64(e.QuorumSize()) / math.Sqrt(float64(e.N()))
}

// Epsilon returns the exact probability that two quorums chosen by the
// strategy fail to intersect: C(n-q, q)/C(n, q).
func (e *EpsilonIntersecting) Epsilon() float64 { return e.NonIntersectProb() }

// EpsilonBound returns the paper's closed-form bound e^{-ℓ²}
// (Theorem 3.16 via Lemma 3.15).
func (e *EpsilonIntersecting) EpsilonBound() float64 {
	l := e.Ell()
	return math.Exp(-l * l)
}

// MinQForEpsilon returns the smallest quorum size q such that R(n, q) is
// ε'-intersecting with exact ε' <= eps. The exact non-intersection
// probability is strictly decreasing in q, so the scan terminates at the
// optimum. It returns an error if even q = n misses the target (impossible
// for eps > 0, since ε = 0 once q > n/2).
func MinQForEpsilon(n int, eps float64) (int, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("core: epsilon target %v outside (0, 1)", eps)
	}
	for q := 1; q <= n; q++ {
		if combin.ProbDisjoint(n, q, q) <= eps {
			return q, nil
		}
	}
	return 0, fmt.Errorf("core: no quorum size over %d servers achieves epsilon %v", n, eps)
}

// Dissemination is the (b, ε)-dissemination quorum system of Section 4:
// R(n, q) used with self-verifying data against up to b Byzantine servers.
// Definition 4.1 additionally requires crash fault tolerance above b, which
// the constructor enforces (q <= n-b).
type Dissemination struct {
	*quorum.Uniform
	b int
}

// NewDissemination returns R(n, q) viewed as a (b, ε)-dissemination quorum
// system.
func NewDissemination(n, q, b int) (*Dissemination, error) {
	if b < 0 || b >= n {
		return nil, fmt.Errorf("core: byzantine threshold %d outside [0, %d)", b, n)
	}
	u, err := quorum.NewUniform(n, q)
	if err != nil {
		return nil, err
	}
	if u.FaultTolerance() <= b {
		return nil, fmt.Errorf("core: fault tolerance %d must exceed b=%d (need q <= n-b; Definition 4.1)",
			u.FaultTolerance(), b)
	}
	return &Dissemination{Uniform: u, b: b}, nil
}

// NewDisseminationEll returns R(n, ceil(ℓ√n)) as a (b, ε)-dissemination
// system.
func NewDisseminationEll(n, b int, ell float64) (*Dissemination, error) {
	if ell <= 0 {
		return nil, fmt.Errorf("core: ell %v must be positive", ell)
	}
	return NewDissemination(n, QFromEll(n, ell), b)
}

// B returns the number of Byzantine failures tolerated.
func (d *Dissemination) B() int { return d.b }

// Ell returns ℓ = q/√n.
func (d *Dissemination) Ell() float64 {
	return float64(d.QuorumSize()) / math.Sqrt(float64(d.N()))
}

// Epsilon returns the exact probability that two chosen quorums intersect
// only inside a worst-case Byzantine set B of size b:
// P(Q ∩ Q' ⊆ B), which by symmetry of the uniform strategy is the same for
// every B of that size.
func (d *Dissemination) Epsilon() float64 {
	return combin.ProbIntersectWithin(d.N(), d.QuorumSize(), d.b)
}

// EpsilonBound returns the paper's closed-form bound: 2e^{-ℓ²/6} when
// b <= n/3 (Theorem 4.4), and for b = αn with 1/3 < α < 1 the generalized
// bound ε_α = 2/(1-α) · α^{ℓ²(1-√α)/2} (Theorem 4.6). For α where both
// apply, the minimum is returned.
func (d *Dissemination) EpsilonBound() float64 {
	l := d.Ell()
	alpha := float64(d.b) / float64(d.N())
	bound := math.Inf(1)
	if 3*d.b <= d.N() {
		bound = 2 * math.Exp(-l*l/6)
	}
	if alpha > 0 && alpha < 1 {
		ea := 2 / (1 - alpha) * math.Pow(alpha, l*l*(1-math.Sqrt(alpha))/2)
		if ea < bound {
			bound = ea
		}
	}
	if math.IsInf(bound, 1) {
		return 1
	}
	return math.Min(bound, 1)
}

// MinQForDissemination returns the smallest q such that the exact
// dissemination ε over n servers with b Byzantine failures is at most eps,
// subject to the Definition 4.1 constraint q <= n-b.
func MinQForDissemination(n, b int, eps float64) (int, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("core: epsilon target %v outside (0, 1)", eps)
	}
	if b < 0 || b >= n {
		return 0, fmt.Errorf("core: byzantine threshold %d outside [0, %d)", b, n)
	}
	for q := 1; q <= n-b; q++ {
		if combin.ProbIntersectWithin(n, q, b) <= eps {
			return q, nil
		}
	}
	return 0, fmt.Errorf("core: no quorum size over %d servers with b=%d achieves epsilon %v", n, b, eps)
}

// Masking is the (b, ε)-masking quorum system R_k(n, q) of Section 5.2:
// R(n, q) together with the read-acceptance threshold k. A reading client
// accepts a value only if at least k servers vouch for it; k is chosen
// between E|Q∩B| = q²/ℓn and E|Q∩Q'\B| ≈ q²/n so that with probability
// 1-ε the faulty servers fall short of the threshold while the up-to-date
// correct servers exceed it.
type Masking struct {
	*quorum.Uniform
	b, k int
}

// NewMasking returns R_k(n, q) with the paper's threshold choice
// k = ceil(q²/2n) (Section 5.3).
func NewMasking(n, q, b int) (*Masking, error) {
	k := int(math.Ceil(float64(q) * float64(q) / (2 * float64(n))))
	if k < 1 {
		k = 1
	}
	return NewMaskingWithK(n, q, b, k)
}

// NewMaskingWithK returns R_k(n, q) with an explicit threshold k, used by
// the threshold-choice ablation.
func NewMaskingWithK(n, q, b, k int) (*Masking, error) {
	if b < 0 || b >= n {
		return nil, fmt.Errorf("core: byzantine threshold %d outside [0, %d)", b, n)
	}
	if k < 1 || k > q {
		return nil, fmt.Errorf("core: read threshold %d outside [1, q=%d]", k, q)
	}
	u, err := quorum.NewUniform(n, q)
	if err != nil {
		return nil, err
	}
	if u.FaultTolerance() <= b {
		return nil, fmt.Errorf("core: fault tolerance %d must exceed b=%d (need q <= n-b; Definition 5.1)",
			u.FaultTolerance(), b)
	}
	return &Masking{Uniform: u, b: b, k: k}, nil
}

// B returns the number of Byzantine failures tolerated.
func (m *Masking) B() int { return m.b }

// K returns the read-acceptance threshold.
func (m *Masking) K() int { return m.k }

// Ell returns ℓ = q/b, the ratio the paper's masking analysis is
// parameterized by (Section 5.2). It is +Inf when b = 0.
func (m *Masking) Ell() float64 {
	if m.b == 0 {
		return math.Inf(1)
	}
	return float64(m.QuorumSize()) / float64(m.b)
}

// Epsilon returns the exact probability that a read/write quorum pair
// violates Definition 5.1's threshold condition for a worst-case Byzantine
// set of size b: 1 - P(|Q∩B| < k AND |Q∩Q'\B| >= k).
func (m *Masking) Epsilon() float64 {
	return combin.MaskingErrExact(m.N(), m.QuorumSize(), m.b, m.k)
}

// EpsilonBound returns the paper's closed-form bound
// 2·exp(-(q²/n)·min{ψ₁(ℓ), ψ₂(ℓ)}) of Theorem 5.10, valid for ℓ = q/b > 2.
// Outside that domain it returns 1 (the theorem gives no guarantee).
func (m *Masking) EpsilonBound() float64 {
	l := m.Ell()
	if l <= 2 {
		return 1
	}
	q := float64(m.QuorumSize())
	n := float64(m.N())
	psi := math.Min(Psi1(l), Psi2(l))
	return math.Min(1, 2*math.Exp(-q*q/n*psi))
}

// Psi1 is the exponent factor of Lemma 5.7:
// (ℓ/2-1)²/(4ℓ) for 2 < ℓ <= 4e, and 1/3 for ℓ > 4e.
func Psi1(ell float64) float64 {
	if ell <= 2 {
		return 0
	}
	if ell > 4*math.E {
		return 1.0 / 3
	}
	d := ell/2 - 1
	return d * d / (4 * ell)
}

// Psi2 is the exponent factor of Lemma 5.9: (ℓ-2)²/(8ℓ(ℓ-1)).
func Psi2(ell float64) float64 {
	if ell <= 2 {
		return 0
	}
	d := ell - 2
	return d * d / (8 * ell * (ell - 1))
}

// MinQForMasking returns the smallest q (with the standard k = ceil(q²/2n))
// whose exact masking ε is at most eps, subject to q <= n-b. Unlike the
// plain intersection probability, the masking error is not monotone in q for
// very small q (the integer threshold jumps), so the scan checks every q.
func MinQForMasking(n, b int, eps float64) (int, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("core: epsilon target %v outside (0, 1)", eps)
	}
	if b < 0 || b >= n {
		return 0, fmt.Errorf("core: byzantine threshold %d outside [0, %d)", b, n)
	}
	for q := 1; q <= n-b; q++ {
		m, err := NewMasking(n, q, b)
		if err != nil {
			continue
		}
		if m.Epsilon() <= eps {
			return q, nil
		}
	}
	return 0, fmt.Errorf("core: no quorum size over %d servers with b=%d achieves masking epsilon %v", n, b, eps)
}

// LoadLowerBoundIntersecting returns the Theorem 3.9 lower bound on the load
// of any ε-intersecting quorum system with expected quorum size eq over n
// servers: max(eq/n, (1-√ε)²/eq).
//
//pqslint:allow deadexport paper Theorem 3.9, pinned by core_test TestConstructionMeetsLowerBounds
func LoadLowerBoundIntersecting(n int, eq, eps float64) float64 {
	if eps < 0 {
		eps = 0
	}
	if eps > 1 {
		eps = 1
	}
	r := 1 - math.Sqrt(eps)
	return math.Max(eq/float64(n), r*r/eq)
}

// LoadLowerBoundIntersectingGlobal returns the Corollary 3.12 bound
// (1-√ε)/√n, the minimum over all expected quorum sizes of
// LoadLowerBoundIntersecting.
//
//pqslint:allow deadexport paper Corollary 3.12, pinned by core_test TestConstructionMeetsLowerBounds
func LoadLowerBoundIntersectingGlobal(n int, eps float64) float64 {
	if eps < 0 {
		eps = 0
	}
	if eps > 1 {
		eps = 1
	}
	return (1 - math.Sqrt(eps)) / math.Sqrt(float64(n))
}

// LoadLowerBoundMasking returns the Theorem 5.5 lower bound on the load of
// any (b, ε)-masking quorum system: (1-2ε)/(1-ε) · b/n (zero when ε >= 1/2,
// where the bound is vacuous).
//
//pqslint:allow deadexport paper Theorem 5.5, pinned by core_test TestConstructionMeetsLowerBounds
func LoadLowerBoundMasking(n, b int, eps float64) float64 {
	if eps >= 0.5 {
		return 0
	}
	return (1 - 2*eps) / (1 - eps) * float64(b) / float64(n)
}

// StrictLoadLowerBound returns the Naor-Wool lower bound 1/√n on the load of
// any strict quorum system (Table 1).
func StrictLoadLowerBound(n int) float64 { return 1 / math.Sqrt(float64(n)) }

// DissemLoadLowerBound returns the √((b+1)/n) lower bound on the load of any
// strict b-dissemination quorum system (Table 1).
func DissemLoadLowerBound(n, b int) float64 {
	return math.Sqrt(float64(b+1) / float64(n))
}

// MaskLoadLowerBound returns the √((2b+1)/n) lower bound on the load of any
// strict b-masking quorum system (Table 1).
func MaskLoadLowerBound(n, b int) float64 {
	return math.Sqrt(float64(2*b+1) / float64(n))
}

// StrictFailLowerBound returns the lower bound on the failure probability of
// ANY strict quorum system over at most n servers at crash probability p:
// the minimum of the majority system's failure probability (optimal for
// p < 1/2) and the singleton's p (optimal for p >= 1/2), following
// Barbara-Garcia-Molina and Peleg-Wool as used for the strict curve in
// Figures 1-3.
func StrictFailLowerBound(n int, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	q := quorum.MajoritySize(n)
	maj := combin.BinomialTailGT(n, p, n-q)
	return math.Min(maj, p)
}
