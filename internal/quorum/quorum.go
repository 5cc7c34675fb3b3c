// Package quorum defines the quorum-system abstraction shared by the strict
// baseline constructions and the probabilistic constructions of Malkhi,
// Reiter, Wool and Wright, together with the strict systems themselves:
// threshold (majority) systems, the Maekawa grid, Byzantine threshold
// systems and Byzantine grid systems.
//
// A quorum system here is a sampling procedure (the access strategy w of
// Definition 2.3) plus analytic quality measures: load (Definition 2.4),
// crash fault tolerance (Definition 2.5) and failure probability
// (Definition 2.6).
package quorum

import (
	"fmt"
	"math/rand"

	"pqs/internal/combin"
)

// ServerID identifies a server in the universe U = {0, ..., n-1}.
type ServerID int

// System is a quorum system equipped with its access strategy.
//
// Pick samples one quorum according to the system's access strategy. The
// returned slice is freshly allocated and sorted ascending. The probabilistic
// guarantees of every construction in this repository hold only under the
// built-in strategy (see the Remark after Theorem 3.2 in the paper: a
// different strategy on the same set system can void the intersection
// guarantee), which is why the strategy is not a separate injectable.
type System interface {
	// Name returns a short human-readable identifier.
	Name() string
	// N returns the universe size.
	N() int
	// QuorumSize returns the size of quorums chosen by the strategy.
	QuorumSize() int
	// Pick samples a quorum using r as the randomness source.
	Pick(r *rand.Rand) []ServerID
	// Load returns the load induced by the built-in access strategy
	// (Definition 2.4 / 3.3).
	Load() float64
	// FaultTolerance returns A(Q): the size of the smallest set of servers
	// intersecting every (high-quality) quorum. The system survives any
	// A(Q)-1 crashes.
	FaultTolerance() int
	// FailProb returns the probability that every quorum contains at least
	// one crashed server when servers crash independently with probability p.
	// It is exact for every system in this package except ByzGrid, which
	// documents its approximation.
	FailProb(p float64) float64
}

// InplacePicker is implemented by systems whose access strategy can sample
// into a caller-supplied buffer, letting steady-state clients pick quorums
// without allocating. The returned slice has exactly Pick's distribution and
// sorted-ascending contract; it aliases dst when dst had capacity.
type InplacePicker interface {
	System
	// PickInto samples one quorum into dst (reset to length 0 first),
	// growing it only when capacity is insufficient.
	PickInto(r *rand.Rand, dst []ServerID) []ServerID
}

// SampleK returns k distinct values uniformly drawn from {0, ..., n-1},
// sorted ascending.
func SampleK(r *rand.Rand, n, k int) []ServerID {
	return SampleKInto(r, n, k, nil)
}

// SampleKInto is SampleK sampling into dst (grown as needed): with
// cap(dst) >= k it performs zero allocations, which is what lets a client's
// steady-state quorum sampling run allocation-free. It uses Floyd's
// algorithm — O(k) space and O(k^2) worst-case time from sorted insertion,
// where quorum sizes (~l*sqrt(n), at most a few hundred) keep the insertion
// cost below a map's — replacing the previous partial Fisher-Yates shuffle,
// which allocated an O(n) permutation per pick.
func SampleKInto(r *rand.Rand, n, k int, dst []ServerID) []ServerID {
	if k < 0 || k > n {
		panic(fmt.Sprintf("quorum: SampleK(%d, %d) outside domain", n, k))
	}
	dst = dst[:0]
	// Floyd: for j in [n-k, n), draw t uniform on [0, j]; take t unless
	// already taken, else take j. Every element drawn in earlier rounds is
	// < j, so "else take j" appends at the tail of the sorted slice.
	for j := n - k; j < n; j++ {
		t := ServerID(r.Intn(j + 1))
		i := searchIDs(dst, t)
		if i < len(dst) && dst[i] == t {
			dst = append(dst, ServerID(j))
			continue
		}
		dst = append(dst, 0)
		copy(dst[i+1:], dst[i:])
		dst[i] = t
	}
	return dst
}

// searchIDs returns the insertion index of v in ascending-sorted s.
func searchIDs(s []ServerID, v ServerID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sortIDs sorts a small ServerID slice ascending (insertion sort: quorum
// sizes are at most a few hundred, where this beats sort.Slice).
func sortIDs(s []ServerID) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// Contains reports whether ascending-sorted s contains id.
func Contains(s []ServerID, id ServerID) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s[mid] < id:
			lo = mid + 1
		case s[mid] > id:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// MajoritySize returns the quorum size of the majority threshold system,
// ceil((n+1)/2).
func MajoritySize(n int) int { return (n + 2) / 2 }

// DissemThresholdSize returns the quorum size of the strict b-dissemination
// threshold construction, ceil((n+b+1)/2) (Section 6).
func DissemThresholdSize(n, b int) int { return (n + b + 2) / 2 }

// MaskThresholdSize returns the quorum size of the strict b-masking threshold
// construction, ceil((n+2b+1)/2) (Section 6).
func MaskThresholdSize(n, b int) int { return (n + 2*b + 2) / 2 }

// MaxDissemB returns the largest b for which a strict b-dissemination system
// over n servers exists: floor((n-1)/3) (Table 1).
func MaxDissemB(n int) int { return (n - 1) / 3 }

// MaxMaskB returns the largest b for which a strict b-masking system over n
// servers exists: floor((n-1)/4) (Table 1).
func MaxMaskB(n int) int { return (n - 1) / 4 }

// Uniform is the set system of all q-subsets of an n-universe under the
// uniform access strategy: the paper's R(n, q) (Definition 3.13). With
// q >= ceil((n+1)/2) it is also a strict quorum system; with smaller q it is
// the carrier of the probabilistic constructions in package core.
type Uniform struct {
	n, q int
}

// NewUniform returns the R(n, q) system.
func NewUniform(n, q int) (*Uniform, error) {
	if n <= 0 {
		return nil, fmt.Errorf("quorum: universe size %d must be positive", n)
	}
	if q <= 0 || q > n {
		return nil, fmt.Errorf("quorum: quorum size %d outside [1, %d]", q, n)
	}
	return &Uniform{n: n, q: q}, nil
}

var _ System = (*Uniform)(nil)

// Name implements System.
func (u *Uniform) Name() string { return fmt.Sprintf("uniform(n=%d,q=%d)", u.n, u.q) }

// N implements System.
func (u *Uniform) N() int { return u.n }

// QuorumSize implements System.
func (u *Uniform) QuorumSize() int { return u.q }

// Pick implements System: a uniformly random q-subset.
func (u *Uniform) Pick(r *rand.Rand) []ServerID { return SampleK(r, u.n, u.q) }

// PickInto implements InplacePicker: Pick sampling into dst, zero-alloc when
// dst has capacity q.
func (u *Uniform) PickInto(r *rand.Rand, dst []ServerID) []ServerID {
	return SampleKInto(r, u.n, u.q, dst)
}

// Load implements System. Every element lies in the same fraction q/n of
// quorums under the uniform strategy (Section 3.4).
func (u *Uniform) Load() float64 { return float64(u.q) / float64(u.n) }

// FaultTolerance implements System: all quorums are high quality by symmetry,
// so the system is disabled only when fewer than q servers survive:
// A = n - q + 1 (Section 3.4).
func (u *Uniform) FaultTolerance() int { return u.n - u.q + 1 }

// FailProb implements System: the system fails iff more than n-q servers
// crash; exact binomial tail.
func (u *Uniform) FailProb(p float64) float64 {
	return combin.BinomialTailGT(u.n, p, u.n-u.q)
}

// NonIntersectProb returns the exact probability that two independently
// sampled quorums are disjoint, C(n-q, q)/C(n, q) (Lemma 3.15 computes the
// e^{-l^2} upper bound for this quantity).
func (u *Uniform) NonIntersectProb() float64 {
	return combin.ProbDisjoint(u.n, u.q, u.q)
}

// Threshold is the strict threshold quorum system: all subsets of size q
// with 2q > n, under the uniform strategy. With q = MajoritySize(n) it is
// the majority system; with the dissemination/masking sizes it is the strict
// Byzantine threshold construction of Section 6.
type Threshold struct {
	Uniform
	name string
}

var _ System = (*Threshold)(nil)

// NewThreshold returns the strict threshold system with quorum size q.
// It fails unless every two quorums are guaranteed to intersect (2q > n).
func NewThreshold(n, q int) (*Threshold, error) {
	u, err := NewUniform(n, q)
	if err != nil {
		return nil, err
	}
	if 2*q <= n {
		return nil, fmt.Errorf("quorum: threshold size %d does not guarantee intersection over %d servers", q, n)
	}
	return &Threshold{
		Uniform: *u,
		name:    fmt.Sprintf("threshold(n=%d,q=%d)", n, q),
	}, nil
}

// NewMajority returns the majority system: quorums of size ceil((n+1)/2).
func NewMajority(n int) (*Threshold, error) {
	t, err := NewThreshold(n, MajoritySize(n))
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("majority(n=%d)", n)
	return t, nil
}

// NewDissemThreshold returns the strict b-dissemination threshold system:
// quorums of size ceil((n+b+1)/2), guaranteeing overlap >= b+1
// (Definition 2.7). Requires b <= floor((n-1)/3).
func NewDissemThreshold(n, b int) (*Threshold, error) {
	if b < 0 {
		return nil, fmt.Errorf("quorum: negative fault threshold %d", b)
	}
	if b > MaxDissemB(n) {
		return nil, fmt.Errorf("quorum: b=%d exceeds dissemination resilience bound %d for n=%d", b, MaxDissemB(n), n)
	}
	q := DissemThresholdSize(n, b)
	t, err := NewThreshold(n, q)
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("dissem-threshold(n=%d,b=%d)", n, b)
	return t, nil
}

// NewMaskThreshold returns the strict b-masking threshold system: quorums of
// size ceil((n+2b+1)/2), guaranteeing overlap >= 2b+1 (Definition 2.7).
// Requires b <= floor((n-1)/4).
func NewMaskThreshold(n, b int) (*Threshold, error) {
	if b < 0 {
		return nil, fmt.Errorf("quorum: negative fault threshold %d", b)
	}
	if b > MaxMaskB(n) {
		return nil, fmt.Errorf("quorum: b=%d exceeds masking resilience bound %d for n=%d", b, MaxMaskB(n), n)
	}
	q := MaskThresholdSize(n, b)
	t, err := NewThreshold(n, q)
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("mask-threshold(n=%d,b=%d)", n, b)
	return t, nil
}

// Name implements System.
func (t *Threshold) Name() string { return t.name }
