package quorum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// intersect returns the intersection of two ascending-sorted ID slices: the
// overlap oracle the intersection tests check quorums with.
func intersect(a, b []ServerID) []ServerID {
	var out []ServerID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// minIntersect is the guaranteed minimum overlap 2q-n of any two quorums of
// a threshold system.
func minIntersect(t *Threshold) int { return 2*t.QuorumSize() - t.N() }

func TestSampleKBasic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(50)
		k := r.Intn(n + 1)
		s := SampleK(r, n, k)
		if len(s) != k {
			t.Fatalf("SampleK(%d,%d) returned %d elements", n, k, len(s))
		}
		for i := range s {
			if s[i] < 0 || int(s[i]) >= n {
				t.Fatalf("element %d outside universe %d", s[i], n)
			}
			if i > 0 && s[i] <= s[i-1] {
				t.Fatalf("not sorted/distinct: %v", s)
			}
		}
	}
}

func TestSampleKUniform(t *testing.T) {
	// Every element should appear with frequency ~ k/n.
	r := rand.New(rand.NewSource(2))
	n, k, trials := 20, 5, 40000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, id := range SampleK(r, n, k) {
			counts[id]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("element %d appeared %d times, want ~%.0f", id, c, want)
		}
	}
}

// TestSampleKIntoZeroAlloc is the data-plane fast-path guarantee: sampling
// into a buffer with sufficient capacity allocates nothing, so steady-state
// quorum picks are allocation-free.
func TestSampleKIntoZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	buf := make([]ServerID, 0, 23)
	allocs := testing.AllocsPerRun(200, func() {
		buf = SampleKInto(r, 100, 23, buf)
	})
	if allocs != 0 {
		t.Errorf("SampleKInto with capacity: %v allocs/op, want 0", allocs)
	}
	u, err := NewUniform(100, 23)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() {
		buf = u.PickInto(r, buf)
	})
	if allocs != 0 {
		t.Errorf("Uniform.PickInto with capacity: %v allocs/op, want 0", allocs)
	}
}

// TestSampleKIntoMatchesContract checks PickInto against Pick's contract:
// sorted, distinct, in-universe, and uniform per-element frequency (the
// distribution equality with the old Fisher-Yates sampler).
func TestSampleKIntoMatchesContract(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n, k, trials := 20, 5, 40000
	counts := make([]int, n)
	buf := make([]ServerID, 0, k)
	for i := 0; i < trials; i++ {
		buf = SampleKInto(r, n, k, buf)
		for j, id := range buf {
			if id < 0 || int(id) >= n {
				t.Fatalf("element %d outside universe", id)
			}
			if j > 0 && buf[j] <= buf[j-1] {
				t.Fatalf("not sorted/distinct: %v", buf)
			}
			counts[id]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("element %d appeared %d times, want ~%.0f", id, c, want)
		}
	}
}

// TestSampleKUnsortedUniformOrder checks the Floyd+shuffle rewrite kept both
// properties spare promotion depends on: uniform membership and uniform draw
// order (each element equally likely in each position).
func TestSampleKUnsortedUniformOrder(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n, k, trials := 10, 4, 40000
	posCounts := make([][]int, k)
	for i := range posCounts {
		posCounts[i] = make([]int, n)
	}
	for i := 0; i < trials; i++ {
		s := SampleKUnsorted(r, n, k)
		if len(s) != k {
			t.Fatalf("len %d, want %d", len(s), k)
		}
		seen := make(map[ServerID]bool, k)
		for pos, id := range s {
			if seen[id] {
				t.Fatalf("duplicate %d in %v", id, s)
			}
			seen[id] = true
			posCounts[pos][id]++
		}
	}
	want := float64(trials) / float64(n)
	for pos := range posCounts {
		for id, c := range posCounts[pos] {
			if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
				t.Errorf("position %d: element %d appeared %d times, want ~%.0f", pos, id, c, want)
			}
		}
	}
}

func TestSampleKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SampleK(rand.New(rand.NewSource(1)), 5, 6)
}

func TestIntersectAndContains(t *testing.T) {
	a := []ServerID{1, 3, 5, 7, 9}
	b := []ServerID{2, 3, 4, 7, 10}
	got := intersect(a, b)
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("Intersect = %v, want [3 7]", got)
	}
	if intersect(a, nil) != nil {
		t.Error("Intersect with empty should be nil")
	}
	for _, id := range a {
		if !Contains(a, id) {
			t.Errorf("Contains(%v, %d) = false", a, id)
		}
	}
	for _, id := range []ServerID{0, 2, 4, 8, 11} {
		if Contains(a, id) {
			t.Errorf("Contains(%v, %d) = true", a, id)
		}
	}
}

func TestIntersectQuick(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(40)
		a := SampleK(rr, n, rr.Intn(n+1))
		b := SampleK(rr, n, rr.Intn(n+1))
		inter := intersect(a, b)
		// Every element of inter is in both; every common element is in inter.
		set := make(map[ServerID]bool)
		for _, id := range inter {
			set[id] = true
			if !Contains(a, id) || !Contains(b, id) {
				return false
			}
		}
		for _, id := range a {
			if Contains(b, id) && !set[id] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestUniformMeasures(t *testing.T) {
	u, err := NewUniform(100, 22)
	if err != nil {
		t.Fatal(err)
	}
	if u.N() != 100 || u.QuorumSize() != 22 {
		t.Error("dimensions wrong")
	}
	if got := u.Load(); got != 0.22 {
		t.Errorf("Load = %v, want 0.22", got)
	}
	if got := u.FaultTolerance(); got != 79 {
		t.Errorf("FaultTolerance = %v, want 79 (paper Table 2)", got)
	}
	if got := u.FailProb(0); got != 0 {
		t.Errorf("FailProb(0) = %v", got)
	}
	if got := u.FailProb(1); got != 1 {
		t.Errorf("FailProb(1) = %v", got)
	}
	// F_p must be increasing in p.
	prev := 0.0
	for p := 0.0; p <= 1.0; p += 0.05 {
		f := u.FailProb(p)
		if f < prev-1e-12 {
			t.Fatalf("FailProb not monotone at p=%v", p)
		}
		prev = f
	}
}

func TestUniformNonIntersectEmpirical(t *testing.T) {
	u, err := NewUniform(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	exact := u.NonIntersectProb()
	r := rand.New(rand.NewSource(4))
	trials, misses := 200000, 0
	for i := 0; i < trials; i++ {
		if len(intersect(u.Pick(r), u.Pick(r))) == 0 {
			misses++
		}
	}
	emp := float64(misses) / float64(trials)
	se := math.Sqrt(exact * (1 - exact) / float64(trials))
	if math.Abs(emp-exact) > 5*se+1e-4 {
		t.Errorf("empirical non-intersection %v vs exact %v", emp, exact)
	}
}

func TestNewUniformValidation(t *testing.T) {
	for _, c := range []struct{ n, q int }{{0, 1}, {-5, 1}, {10, 0}, {10, 11}, {10, -1}} {
		if _, err := NewUniform(c.n, c.q); err == nil {
			t.Errorf("NewUniform(%d,%d) should fail", c.n, c.q)
		}
	}
}

func TestMajorityPaperSizes(t *testing.T) {
	// Table 2 threshold column: quorum size and fault tolerance. The paper
	// lists fault tolerance equal to the quorum size in every row; the exact
	// value A = n-q+1 coincides with that for odd n and is one lower for
	// even n (analysis.Table2 notes it).
	want := map[int][2]int{
		25: {13, 13}, 100: {51, 50}, 225: {113, 113},
		400: {201, 200}, 625: {313, 313}, 900: {451, 450},
	}
	for n, w := range want {
		m, err := NewMajority(n)
		if err != nil {
			t.Fatal(err)
		}
		if m.QuorumSize() != w[0] {
			t.Errorf("n=%d: quorum size %d, want %d", n, m.QuorumSize(), w[0])
		}
		if m.FaultTolerance() != w[1] {
			t.Errorf("n=%d: fault tolerance %d, want %d", n, m.FaultTolerance(), w[1])
		}
	}
}

func TestThresholdIntersectionGuarantee(t *testing.T) {
	th, err := NewThreshold(20, 11)
	if err != nil {
		t.Fatal(err)
	}
	if minIntersect(th) != 2 {
		t.Errorf("MinIntersect = %d, want 2", minIntersect(th))
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a, b := th.Pick(r), th.Pick(r)
		if len(intersect(a, b)) < minIntersect(th) {
			t.Fatalf("quorums intersect in %d < %d", len(intersect(a, b)), minIntersect(th))
		}
	}
	if _, err := NewThreshold(20, 10); err == nil {
		t.Error("2q <= n must be rejected")
	}
}

func TestDissemThresholdPaperSizes(t *testing.T) {
	// Table 3 threshold column with b = floor((sqrt(n)-1)/2). The n=225 row
	// is OCR-corrupted in the source; the formula values are used
	// (analysis.Table3 notes it).
	cases := []struct{ n, b, size, ft int }{
		{25, 2, 14, 12},
		{100, 4, 53, 48},
		{225, 7, 117, 109},
		{400, 9, 205, 196},
		{625, 12, 319, 307},
		{900, 14, 458, 443},
	}
	for _, c := range cases {
		th, err := NewDissemThreshold(c.n, c.b)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if th.QuorumSize() != c.size {
			t.Errorf("n=%d: size %d, want %d", c.n, th.QuorumSize(), c.size)
		}
		if th.FaultTolerance() != c.ft {
			t.Errorf("n=%d: fault tolerance %d, want %d", c.n, th.FaultTolerance(), c.ft)
		}
		if minIntersect(th) < c.b+1 {
			t.Errorf("n=%d: overlap %d < b+1", c.n, minIntersect(th))
		}
	}
	if _, err := NewDissemThreshold(10, 4); err == nil {
		t.Error("b > (n-1)/3 must be rejected")
	}
	if _, err := NewDissemThreshold(10, -1); err == nil {
		t.Error("negative b must be rejected")
	}
}

func TestMaskThresholdPaperSizes(t *testing.T) {
	// Table 4 threshold column.
	cases := []struct{ n, b, size, ft int }{
		{25, 2, 15, 11},
		{100, 4, 55, 46},
		{225, 7, 120, 106},
		{400, 9, 210, 191},
		{625, 12, 325, 301},
		{900, 14, 465, 436},
	}
	for _, c := range cases {
		th, err := NewMaskThreshold(c.n, c.b)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if th.QuorumSize() != c.size {
			t.Errorf("n=%d: size %d, want %d", c.n, th.QuorumSize(), c.size)
		}
		if th.FaultTolerance() != c.ft {
			t.Errorf("n=%d: fault tolerance %d, want %d", c.n, th.FaultTolerance(), c.ft)
		}
		if minIntersect(th) < 2*c.b+1 {
			t.Errorf("n=%d: overlap %d < 2b+1", c.n, minIntersect(th))
		}
	}
	if _, err := NewMaskThreshold(10, 3); err == nil {
		t.Error("b > (n-1)/4 must be rejected")
	}
}

func TestResilienceBounds(t *testing.T) {
	// Table 1: b <= floor((n-1)/3) and floor((n-1)/4).
	if MaxDissemB(100) != 33 || MaxMaskB(100) != 24 {
		t.Errorf("bounds: %d, %d", MaxDissemB(100), MaxMaskB(100))
	}
	if MaxDissemB(4) != 1 || MaxMaskB(5) != 1 {
		t.Errorf("small-n bounds: %d, %d", MaxDissemB(4), MaxMaskB(5))
	}
}

func TestGridBasics(t *testing.T) {
	g, err := NewGrid(25)
	if err != nil {
		t.Fatal(err)
	}
	if g.QuorumSize() != 9 {
		t.Errorf("quorum size %d, want 9 (Table 2)", g.QuorumSize())
	}
	if g.FaultTolerance() != 5 {
		t.Errorf("fault tolerance %d, want 5 (Table 2)", g.FaultTolerance())
	}
	wantLoad := 2.0/5 - 1.0/25
	if math.Abs(g.Load()-wantLoad) > 1e-12 {
		t.Errorf("load %v, want %v", g.Load(), wantLoad)
	}
	if _, err := NewGrid(24); err == nil {
		t.Error("non-square universe must be rejected")
	}
}

func TestGridPickShape(t *testing.T) {
	g, err := NewGrid(36)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		q := g.Pick(r)
		if len(q) != g.QuorumSize() {
			t.Fatalf("size %d, want %d", len(q), g.QuorumSize())
		}
		// Quorum must be exactly one full row plus one full column.
		rowCount := make(map[int]int)
		colCount := make(map[int]int)
		for _, id := range q {
			rowCount[int(id)/6]++
			colCount[int(id)%6]++
		}
		fullRows, fullCols := 0, 0
		for _, c := range rowCount {
			if c == 6 {
				fullRows++
			}
		}
		for _, c := range colCount {
			if c == 6 {
				fullCols++
			}
		}
		if fullRows != 1 || fullCols != 1 {
			t.Fatalf("quorum is not row+column: %v", q)
		}
	}
}

func TestGridLoadEmpirical(t *testing.T) {
	g, err := NewGrid(36)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	trials := 30000
	counts := make([]int, g.N())
	for i := 0; i < trials; i++ {
		for _, id := range g.Pick(r) {
			counts[id]++
		}
	}
	want := g.Load() * float64(trials)
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("cell %d accessed %d times, want ~%.0f", id, c, want)
		}
	}
}

// bruteGridFailProb enumerates all crash patterns of a rows x cols grid.
func bruteGridFailProb(rows, cols int, p float64) float64 {
	n := rows * cols
	var fail float64
	for mask := 0; mask < 1<<uint(n); mask++ { // bit set = crashed
		// Live quorum exists iff some row all-alive and some col all-alive.
		liveRow := false
		for r := 0; r < rows && !liveRow; r++ {
			all := true
			for c := 0; c < cols; c++ {
				if mask&(1<<uint(r*cols+c)) != 0 {
					all = false
					break
				}
			}
			liveRow = liveRow || all
		}
		liveCol := false
		for c := 0; c < cols && !liveCol; c++ {
			all := true
			for r := 0; r < rows; r++ {
				if mask&(1<<uint(r*cols+c)) != 0 {
					all = false
					break
				}
			}
			liveCol = liveCol || all
		}
		if liveRow && liveCol {
			continue
		}
		dead := 0
		for m := mask; m != 0; m &= m - 1 {
			dead++
		}
		fail += math.Pow(p, float64(dead)) * math.Pow(1-p, float64(n-dead))
	}
	return fail
}

func TestGridFailProbExact(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {4, 4}} {
		g, err := NewGrid(dims[0] * dims[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0.05, 0.2, 0.5, 0.8, 0.95} {
			want := bruteGridFailProb(dims[0], dims[1], p)
			got := g.FailProb(p)
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("grid %dx%d p=%v: FailProb %v, want %v", dims[0], dims[1], p, got, want)
			}
		}
	}
}

func TestGridFailProbEdges(t *testing.T) {
	g, _ := NewGrid(100)
	if g.FailProb(0) != 0 || g.FailProb(1) != 1 {
		t.Error("edge probabilities wrong")
	}
	prev := 0.0
	for p := 0.0; p <= 1.0; p += 0.02 {
		f := g.FailProb(p)
		if f < prev-1e-9 {
			t.Fatalf("grid FailProb not monotone at p=%v: %v < %v", p, f, prev)
		}
		prev = f
	}
}

func TestByzGridPaperSizes(t *testing.T) {
	// Table 3 grid column (dissemination) and Table 4 grid column (masking).
	dissem := []struct{ n, b, size int }{
		{25, 2, 16}, {100, 4, 36}, {225, 7, 56}, {400, 9, 111}, {625, 12, 141}, {900, 14, 171},
	}
	for _, c := range dissem {
		g, err := NewDissemGrid(c.n, c.b)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if g.QuorumSize() != c.size {
			t.Errorf("dissem grid n=%d: size %d, want %d", c.n, g.QuorumSize(), c.size)
		}
	}
	mask := []struct{ n, b, size int }{
		{25, 2, 16}, {100, 4, 51}, {225, 7, 81}, {400, 9, 144}, {625, 12, 184}, {900, 14, 224},
	}
	for _, c := range mask {
		g, err := NewMaskGrid(c.n, c.b)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if g.QuorumSize() != c.size {
			t.Errorf("mask grid n=%d: size %d, want %d", c.n, g.QuorumSize(), c.size)
		}
	}
}

func TestByzGridOverlap(t *testing.T) {
	const b = 4
	g, err := NewMaskGrid(100, b)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		a, c := g.Pick(r), g.Pick(r)
		if len(a) != g.QuorumSize() || len(c) != g.QuorumSize() {
			t.Fatalf("pick size %d/%d, want %d", len(a), len(c), g.QuorumSize())
		}
		if got := len(intersect(a, c)); got < 2*b+1 {
			t.Fatalf("overlap %d < 2b+1 = %d", got, 2*b+1)
		}
	}
}

func TestByzGridMeasures(t *testing.T) {
	g, err := NewDissemGrid(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	// r = ceil(sqrt(5/2)) = 2: |Q| = 2·2·10 - 2·2 = 36; A = 10 - 2 + 1 = 9.
	if g.QuorumSize() != 36 {
		t.Errorf("quorum size %d, want 36", g.QuorumSize())
	}
	if g.FaultTolerance() != 9 {
		t.Errorf("fault tolerance %d, want 9", g.FaultTolerance())
	}
	wantLoad := 1 - 0.8*0.8
	if math.Abs(g.Load()-wantLoad) > 1e-12 {
		t.Errorf("load %v, want %v", g.Load(), wantLoad)
	}
	if g.FailProb(0) != 0 || g.FailProb(1) != 1 {
		t.Error("edge fail probs wrong")
	}
}

func TestCeilSqrtHalf(t *testing.T) {
	for x := 0; x <= 2000; x++ {
		r := ceilSqrtHalf(x)
		if x == 0 {
			if r != 0 {
				t.Fatalf("ceilSqrtHalf(0) = %d", r)
			}
			continue
		}
		if 2*r*r < x {
			t.Fatalf("ceilSqrtHalf(%d) = %d too small", x, r)
		}
		if r > 1 && 2*(r-1)*(r-1) >= x {
			t.Fatalf("ceilSqrtHalf(%d) = %d not minimal", x, r)
		}
	}
}

func TestLoadLowerBoundNaorWool(t *testing.T) {
	// L(Q) >= max(1/c(Q), c(Q)/n) >= 1/sqrt(n) for all strict systems here.
	systems := []System{}
	if m, err := NewMajority(100); err == nil {
		systems = append(systems, m)
	}
	if g, err := NewGrid(100); err == nil {
		systems = append(systems, g)
	}
	for _, s := range systems {
		if s.Load() < 1/math.Sqrt(float64(s.N()))-1e-12 {
			t.Errorf("%s: load %v below 1/sqrt(n)", s.Name(), s.Load())
		}
		c := float64(s.QuorumSize())
		lower := math.Max(1/c, c/float64(s.N()))
		if s.Load() < lower-1e-12 {
			t.Errorf("%s: load %v below max(1/c, c/n) = %v", s.Name(), s.Load(), lower)
		}
	}
}
