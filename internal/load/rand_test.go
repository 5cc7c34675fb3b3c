package load

import (
	"math"
	"runtime"
	"testing"

	"pqs/internal/combin"
	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/quorum"
	"pqs/internal/sim"
	"pqs/internal/vtime"
)

// TestClientStreamsFollowTheLaw holds the streams newRand gives a run's
// clients to the paper's law. Clients are seeded as newClientState seeds
// their register sources (run seed 1, client i = 0, 1, …), and each draws
// its first quorum of R(50, 10) through quorum.Uniform.PickInto. Two
// checks:
//
//   - over the disjoint client pairs (2i, 2i+1), the share of pairs whose
//     quorums miss each other, by an exact two-sided binomial test against
//     Epsilon() = C(40,10)/C(50,10);
//   - per-server inclusion, by a chi-square test against q/n.
//
// Both run at α = 1e-6 and are sized to catch a 25 % relative bias with
// power ≥ 0.99 (the test computes and logs that power, and fails if its own
// sizing falls short). For inclusion the bias is one server drawn at
// 1.25·q/n, the others evenly below. Keying ChaCha8 with only the seed's low
// byte, or one seed for every client, fails it.
func TestClientStreamsFollowTheLaw(t *testing.T) {
	const (
		n, q  = 50, 10
		pairs = 11000
		seed  = 1
		alpha = 1e-6
		bias  = 0.25
	)
	sys, err := core.NewEpsilonIntersecting(n, q)
	if err != nil {
		t.Fatal(err)
	}
	eps := sys.Epsilon()

	var included [n]int
	disjoint := 0
	a, b := make([]quorum.ServerID, 0, q), make([]quorum.ServerID, 0, q)
	for i := 0; i < pairs; i++ {
		a = sys.PickInto(newRand(seed+0x9E3779B9*int64(2*i+1)), a)
		b = sys.PickInto(newRand(seed+0x9E3779B9*int64(2*i+2)), b)
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

	lo, hi := binomialAcceptance(pairs, eps, alpha)
	power := min(binomialRejects(pairs, eps*(1-bias), lo, hi), binomialRejects(pairs, eps*(1+bias), lo, hi))
	if power < 0.99 {
		t.Fatalf("%d pairs catch a %.0f %% bias in ε with power %.4f; want ≥ 0.99", pairs, 100*bias, power)
	}
	t.Logf("disjoint: %d of %d pairs (%.5f), accepted [%d, %d] around ε = %.5f; power %.4f against a %.0f %% bias",
		disjoint, pairs, float64(disjoint)/pairs, lo, hi, eps, power, 100*bias)
	if disjoint < lo || disjoint > hi {
		t.Errorf("%d of %d client pairs drew disjoint quorums, outside [%d, %d]: ε = %.5f, exact %.5f",
			disjoint, pairs, lo, hi, float64(disjoint)/pairs, eps)
	}

	// A quorum holds q distinct servers, so one quorum's inclusion vector
	// has covariance p(1−p)·n/(n−1)·(I − J/n), p = q/n: the Pearson sum
	// scaled by (n−1)/(n·(1−p)) is χ² with n−1 degrees of freedom.
	draws, p, df := float64(2*pairs), float64(q)/n, float64(n-1)
	var x2 float64
	for _, c := range included {
		d := float64(c) - draws*p
		x2 += d * d
	}
	x2 *= df / (draws * p * (1 - p) * n)
	crit := chi2Quantile(df, alpha)
	lambda := draws * bias * bias * p / (1 - p)
	// Patnaik: a noncentral χ²(df, λ) is about c·χ²(ν).
	c, nu := (df+2*lambda)/(df+lambda), (df+lambda)*(df+lambda)/(df+2*lambda)
	chiPower := chi2Survival(crit/c, nu)
	if chiPower < 0.99 {
		t.Fatalf("%v quorums catch a %.0f %% inclusion bias with power %.4f; want ≥ 0.99", draws, 100*bias, chiPower)
	}
	t.Logf("inclusion: χ² = %.1f on %v df, critical %.1f; power %.4f against a %.0f %% bias on one server",
		x2, df, crit, chiPower, 100*bias)
	if x2 > crit {
		t.Errorf("per-server inclusion departs from q/n: χ² = %.1f on %v df, above %.1f (α = %g)", x2, df, crit, alpha)
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

// TestClientFootprint gates what building one counting client costs: its
// register client, arrival and sampler sources, keys and write records.
// Measured with 2 000 clients on a 100-replica mem world: 11 745 B per
// client when the two sources were math/rand's (a 5 376 B table each), and
// 1 630 B with ChaCha8 (320 B each; 1 692 B under -race). Going back to
// rand.NewSource fails it.
func TestClientFootprint(t *testing.T) {
	const clients, limit = 2000, 4096
	sys, err := core.NewEpsilonIntersectingEll(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc := vtime.NewSimClock()
	var perClient uint64
	sc.Run(func() {
		var world *sim.World
		world, err = sim.NewWorld(config.Cluster{N: sys.N(), Seed: 1, Clock: sc}, sim.TransportMem, 1, sim.TCPOptions{})
		if err != nil {
			return
		}
		defer world.Close()
		e := &engine{cfg: Config{System: sys, Seed: 1}, sc: sc, world: world}
		built := make([]*clientState, clients)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range built {
			if built[i], err = e.newClientState(i); err != nil {
				return
			}
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(built)
		perClient = (after.TotalAlloc - before.TotalAlloc) / clients
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d B allocated per client", perClient)
	if perClient > limit {
		t.Errorf("a client costs %d B to build; the gate is %d B", perClient, limit)
	}
}
