package quorum

import (
	"fmt"
	"math"
	"math/rand"

	"pqs/internal/combin"
)

// Grid is the Maekawa grid quorum system: the n servers are arranged in a
// rows x cols rectangle (server id = row*cols + col) and each quorum is the
// union of one full row and one full column. The access strategy picks the
// row and the column independently and uniformly.
type Grid struct {
	rows, cols int
}

var _ System = (*Grid)(nil)

// NewGrid returns the square grid system over n servers; n must be a perfect
// square (the layout used in Section 6 of the paper).
func NewGrid(n int) (*Grid, error) {
	if n <= 0 || !combin.IsPerfectSquare(n) {
		return nil, fmt.Errorf("quorum: grid universe %d is not a positive perfect square", n)
	}
	s := combin.IntSqrt(n)
	return &Grid{rows: s, cols: s}, nil
}

// Name implements System.
func (g *Grid) Name() string { return fmt.Sprintf("grid(%dx%d)", g.rows, g.cols) }

// N implements System.
func (g *Grid) N() int { return g.rows * g.cols }

// QuorumSize implements System: one row plus one column share one cell.
func (g *Grid) QuorumSize() int { return g.rows + g.cols - 1 }

// Pick implements System.
func (g *Grid) Pick(r *rand.Rand) []ServerID {
	row := r.Intn(g.rows)
	col := r.Intn(g.cols)
	out := make([]ServerID, 0, g.QuorumSize())
	for c := 0; c < g.cols; c++ {
		out = append(out, ServerID(row*g.cols+c))
	}
	for rr := 0; rr < g.rows; rr++ {
		if rr == row {
			continue
		}
		out = append(out, ServerID(rr*g.cols+col))
	}
	sortIDs(out)
	return out
}

// Load implements System. Under the uniform row/column strategy a cell is
// accessed iff its row or its column is chosen:
// 1/rows + 1/cols - 1/(rows*cols), which is 2/sqrt(n) - 1/n for the square
// grid — the classical O(1/sqrt(n)) grid load.
func (g *Grid) Load() float64 {
	r, c := float64(g.rows), float64(g.cols)
	return 1/r + 1/c - 1/(r*c)
}

// FaultTolerance implements System. A full row (or column, whichever is
// smaller) meets every quorum, and no smaller set does: a set with fewer
// than min(rows, cols) elements leaves some row i and some column j empty,
// and the quorum (row i, col j) avoids it. Hence A = min(rows, cols).
func (g *Grid) FaultTolerance() int {
	if g.rows < g.cols {
		return g.rows
	}
	return g.cols
}

// FailProb implements System, exactly. A live quorum exists iff some row is
// fully alive AND some column is fully alive. With A = "no fully-alive row"
// and B = "no fully-alive column",
//
//	F_p = P(A ∪ B) = P(B) + P(A ∩ B^c)
//
// and P(A ∩ B^c) — no live row but at least one live column — expands by
// inclusion-exclusion over the set of columns forced fully alive: forcing j
// particular columns alive costs (1-p)^{rows·j} and leaves each row needing
// one of its remaining cols-j cells dead:
//
//	P(A ∩ B^c) = Σ_{j=1..cols} (-1)^{j+1} C(cols, j) (1-p)^{rows·j} (1-(1-p)^{cols-j})^{rows}.
func (g *Grid) FailProb(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	r, c := g.rows, g.cols
	alive := 1 - p
	// P(B): every column has at least one dead cell.
	pb := math.Pow(1-math.Pow(alive, float64(r)), float64(c))
	sum := pb
	sign := 1.0
	for j := 1; j <= c; j++ {
		term := combin.Binom(c, j) *
			math.Pow(alive, float64(r*j)) *
			math.Pow(1-math.Pow(alive, float64(c-j)), float64(r))
		sum += sign * term
		sign = -sign
	}
	if sum < 0 {
		return 0
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// ByzGrid is the grid-based Byzantine quorum construction used as the strict
// baseline in Tables 3 and 4: each quorum is the union of r full rows and r
// full columns of a square s x s grid, with r = ceil(sqrt((b+1)/2)) for
// dissemination systems and r = ceil(sqrt((2b+1)/2)) for masking systems, so
// that two quorums overlap in at least 2r^2 >= b+1 (resp. 2b+1) servers.
type ByzGrid struct {
	side int // grid is side x side
	r    int // rows and columns per quorum
	name string
}

var _ System = (*ByzGrid)(nil)

// NewDissemGrid returns the grid b-dissemination construction over n servers
// (n a perfect square): r = ceil(sqrt((b+1)/2)) rows and columns.
func NewDissemGrid(n, b int) (*ByzGrid, error) {
	r := ceilSqrtHalf(b + 1)
	g, err := newByzGrid(n, b, r)
	if err != nil {
		return nil, err
	}
	if 2*r*r < b+1 {
		return nil, fmt.Errorf("quorum: internal: grid overlap %d < b+1=%d", 2*r*r, b+1)
	}
	g.name = fmt.Sprintf("dissem-grid(n=%d,b=%d,r=%d)", n, b, r)
	return g, nil
}

// NewMaskGrid returns the grid b-masking construction over n servers
// (n a perfect square): r = ceil(sqrt((2b+1)/2)) rows and columns.
func NewMaskGrid(n, b int) (*ByzGrid, error) {
	r := ceilSqrtHalf(2*b + 1)
	g, err := newByzGrid(n, b, r)
	if err != nil {
		return nil, err
	}
	if 2*r*r < 2*b+1 {
		return nil, fmt.Errorf("quorum: internal: grid overlap %d < 2b+1=%d", 2*r*r, 2*b+1)
	}
	g.name = fmt.Sprintf("mask-grid(n=%d,b=%d,r=%d)", n, b, r)
	return g, nil
}

// ceilSqrtHalf returns ceil(sqrt(x/2)) for integer x >= 0.
func ceilSqrtHalf(x int) int {
	if x <= 0 {
		return 0
	}
	r := int(math.Ceil(math.Sqrt(float64(x) / 2)))
	for r > 1 && 2*(r-1)*(r-1) >= x {
		r--
	}
	for 2*r*r < x {
		r++
	}
	return r
}

func newByzGrid(n, b, r int) (*ByzGrid, error) {
	if n <= 0 || !combin.IsPerfectSquare(n) {
		return nil, fmt.Errorf("quorum: grid universe %d is not a positive perfect square", n)
	}
	if b < 0 {
		return nil, fmt.Errorf("quorum: negative fault threshold %d", b)
	}
	side := combin.IntSqrt(n)
	if r < 1 || r > side {
		return nil, fmt.Errorf("quorum: grid quorum needs %d rows/cols but grid side is %d", r, side)
	}
	return &ByzGrid{side: side, r: r}, nil
}

// Name implements System.
func (g *ByzGrid) Name() string { return g.name }

// N implements System.
func (g *ByzGrid) N() int { return g.side * g.side }

// QuorumSize implements System: r rows and r columns overlap in r*r cells,
// so |Q| = 2*r*side - r*r.
func (g *ByzGrid) QuorumSize() int { return 2*g.r*g.side - g.r*g.r }

// Pick implements System: r distinct rows and r distinct columns chosen
// uniformly and independently.
func (g *ByzGrid) Pick(rnd *rand.Rand) []ServerID {
	rows := SampleK(rnd, g.side, g.r)
	cols := SampleK(rnd, g.side, g.r)
	inRows := make(map[int]bool, g.r)
	for _, rr := range rows {
		inRows[int(rr)] = true
	}
	out := make([]ServerID, 0, g.QuorumSize())
	for _, rr := range rows {
		for c := 0; c < g.side; c++ {
			out = append(out, ServerID(int(rr)*g.side+c))
		}
	}
	for _, cc := range cols {
		for rr := 0; rr < g.side; rr++ {
			if inRows[rr] {
				continue
			}
			out = append(out, ServerID(rr*g.side+int(cc)))
		}
	}
	sortIDs(out)
	return out
}

// Load implements System: a cell is accessed iff its row or its column is
// chosen, i.e. 1 - (1 - r/s)^2 for the square grid.
func (g *ByzGrid) Load() float64 {
	f := float64(g.r) / float64(g.side)
	return 1 - (1-f)*(1-f)
}

// FaultTolerance implements System. Hitting side-r+1 rows (one crash per
// row) leaves at most r-1 rows untouched, so no quorum can assemble r clean
// rows; no smaller set suffices, because with at most side-r crashed-in rows
// there remain r fully clean rows and, symmetrically, r clean columns.
// Hence A = side - r + 1. (The paper's Tables 3-4 list sqrt(n) here; the
// analysis package's Table 3 notes the discrepancy.)
func (g *ByzGrid) FaultTolerance() int { return g.side - g.r + 1 }

// FailProb implements System, approximately: it returns the union bound
//
//	P(< r live rows) + P(< r live cols)
//
// where the two marginals are exact binomial tails (rows are independent of
// one another, as are columns, but rows are not independent of columns; the
// exact joint requires exponential-size inclusion-exclusion). The bound is
// exact at p=0 and p=1 and within a factor 2 everywhere; package sim offers
// a Monte-Carlo estimate when more precision is needed.
func (g *ByzGrid) FailProb(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	rowAlive := math.Pow(1-p, float64(g.side))
	// #live rows ~ Binomial(side, rowAlive); fail when fewer than r live.
	short := 1 - combin.BinomialTailGE(g.side, rowAlive, g.r)
	u := 2 * short // rows and columns are exchangeable on a square grid
	if u > 1 {
		return 1
	}
	return u
}
