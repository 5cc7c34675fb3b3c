package quorum

import "math/rand"

// SpareSampler is implemented by systems whose access strategy can produce,
// alongside one quorum, a ranked list of spare servers to promote when a
// quorum member fails or lags (hedged access). Spares are drawn from outside
// the returned quorum by the same randomness that drives the strategy, in
// promotion order: spares[0] is dispatched first.
//
// The intersection analysis of each construction applies to the quorum as
// sampled. Promoting a spare only when a member is observed to have failed
// (or to be slower than a hedge delay that is independent of server
// identity) is the same conditioning the retrying client already documents:
// the access set that completes is the strategy's sample conditioned on
// having answered, so the attempt-level ε argument carries over. The chaos
// harness (chaos.Run) measures exactly this with hedging enabled.
type SpareSampler interface {
	System
	// PickWithSpares samples one quorum plus up to spares extra servers.
	// The quorum slice is sorted ascending exactly as Pick's; the spare
	// slice is in promotion order and disjoint from the quorum. Fewer
	// spares than requested are returned when the universe runs out.
	PickWithSpares(r *rand.Rand, spares int) (q, spare []ServerID)
}

// SampleKWithSpares draws k+spares distinct values uniformly from
// {0, ..., n-1} and splits them: the first k (sorted ascending) form the
// primary sample, the rest stay in draw order as spares. The primary sample
// has exactly the distribution of SampleK(r, n, k); the spares are uniform
// over the complement, so promotion by failure keeps the completed set
// uniform over live k-subsets.
func SampleKWithSpares(r *rand.Rand, n, k, spares int) (q, spare []ServerID) {
	if spares < 0 {
		spares = 0
	}
	if spares > n-k {
		spares = n - k
	}
	all := SampleKUnsorted(r, n, k+spares)
	q = all[:k:k]
	spare = all[k:]
	sortIDs(q)
	return q, spare
}

// SampleKUnsorted is SampleK in uniformly random order: k distinct values
// uniformly drawn from {0, ..., n-1}, in draw order. It samples the subset
// with Floyd's algorithm and shuffles it, which has exactly the distribution
// of the k-prefix of a Fisher-Yates permutation (uniform subset x uniform
// order) at O(k) instead of O(n) space.
func SampleKUnsorted(r *rand.Rand, n, k int) []ServerID {
	if k < 0 || k > n {
		panic("quorum: SampleKUnsorted outside domain")
	}
	out := SampleKInto(r, n, k, make([]ServerID, 0, k))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sampleComplement draws up to want distinct servers uniformly from the
// universe {0, ..., n-1} minus the ascending-sorted set q, in draw order.
func sampleComplement(r *rand.Rand, n int, q []ServerID, want int) []ServerID {
	avail := n - len(q)
	if want > avail {
		want = avail
	}
	if want <= 0 {
		return nil
	}
	rest := make([]ServerID, 0, avail)
	for i := 0; i < n; i++ {
		if !Contains(q, ServerID(i)) {
			rest = append(rest, ServerID(i))
		}
	}
	for i := 0; i < want; i++ {
		j := i + r.Intn(len(rest)-i)
		rest[i], rest[j] = rest[j], rest[i]
	}
	return rest[:want:want]
}

// PickWithSpares implements SpareSampler: the quorum is a uniform q-subset
// (identical in distribution to Pick) and the spares are uniform over the
// remaining servers.
func (u *Uniform) PickWithSpares(r *rand.Rand, spares int) ([]ServerID, []ServerID) {
	return SampleKWithSpares(r, u.n, u.q, spares)
}

// PickWithSpares implements SpareSampler: the quorum is Pick's row+column;
// spares are uniform over the remaining cells. A promoted spare substitutes
// for a failed or lagging cell in count-based acceptance; the strict
// row/column structure is carried by the original sample.
func (g *Grid) PickWithSpares(r *rand.Rand, spares int) ([]ServerID, []ServerID) {
	q := g.Pick(r)
	return q, sampleComplement(r, g.N(), q, spares)
}

// PickWithSpares implements SpareSampler: Pick's r rows + r columns, with
// spares uniform over the remaining cells (see Grid.PickWithSpares).
func (g *ByzGrid) PickWithSpares(rnd *rand.Rand, spares int) ([]ServerID, []ServerID) {
	q := g.Pick(rnd)
	return q, sampleComplement(rnd, g.N(), q, spares)
}

var (
	_ SpareSampler = (*Uniform)(nil)
	_ SpareSampler = (*Threshold)(nil) // via embedded Uniform
	_ SpareSampler = (*Grid)(nil)
	_ SpareSampler = (*ByzGrid)(nil)
)
