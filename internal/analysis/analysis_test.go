package analysis

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses an integer table cell.
func cell(t *testing.T, tbl *Table, row, col int) int {
	t.Helper()
	v, err := strconv.Atoi(tbl.Rows[row][col])
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not an int: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func floatCell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a float: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestTable2MatchesPaper(t *testing.T) {
	tbl, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 2: eps-intersecting (q, A) and grid (q, A) per row.
	wantQ := []int{9, 22, 36, 49, 62, 75}
	wantA := []int{17, 79, 190, 352, 564, 826}
	wantGridQ := []int{9, 19, 29, 39, 49, 59}
	wantGridA := []int{5, 10, 15, 20, 25, 30}
	wantThQ := []int{13, 51, 113, 201, 313, 451}
	if len(tbl.Rows) != len(TableSizes) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		if got := cell(t, tbl, i, 2); got != wantQ[i] {
			t.Errorf("row %d: eps-int q = %d, want %d", i, got, wantQ[i])
		}
		if got := cell(t, tbl, i, 3); got != wantA[i] {
			t.Errorf("row %d: eps-int A = %d, want %d", i, got, wantA[i])
		}
		if got := cell(t, tbl, i, 6); got != wantThQ[i] {
			t.Errorf("row %d: threshold q = %d, want %d", i, got, wantThQ[i])
		}
		if got := cell(t, tbl, i, 8); got != wantGridQ[i] {
			t.Errorf("row %d: grid q = %d, want %d", i, got, wantGridQ[i])
		}
		if got := cell(t, tbl, i, 9); got != wantGridA[i] {
			t.Errorf("row %d: grid A = %d, want %d", i, got, wantGridA[i])
		}
		// The probabilistic quorums must be far smaller than threshold ones.
		if cell(t, tbl, i, 2) >= cell(t, tbl, i, 6) {
			t.Errorf("row %d: probabilistic quorum not smaller than threshold", i)
		}
		// Exact eps must be small (within 6x of the 1e-3 target everywhere,
		// per Table 2's first note).
		if eps := floatCell(t, tbl, i, 4); eps > 6e-3 {
			t.Errorf("row %d: exact eps %v implausibly large", i, eps)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	tbl, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	wantB := []int{2, 4, 7, 9, 12, 14}
	wantQ := []int{11, 24, 37, 50, 63, 77}
	wantA := []int{15, 77, 189, 351, 563, 824}
	wantThQ := []int{14, 53, 117, 205, 319, 458} // n=225 row OCR-corrected
	wantGridQ := []int{16, 36, 56, 111, 141, 171}
	for i := range tbl.Rows {
		if got := cell(t, tbl, i, 1); got != wantB[i] {
			t.Errorf("row %d: b = %d, want %d", i, got, wantB[i])
		}
		if got := cell(t, tbl, i, 3); got != wantQ[i] {
			t.Errorf("row %d: dissem q = %d, want %d", i, got, wantQ[i])
		}
		if got := cell(t, tbl, i, 4); got != wantA[i] {
			t.Errorf("row %d: dissem A = %d, want %d", i, got, wantA[i])
		}
		if got := cell(t, tbl, i, 6); got != wantThQ[i] {
			t.Errorf("row %d: threshold q = %d, want %d", i, got, wantThQ[i])
		}
		if got := cell(t, tbl, i, 8); got != wantGridQ[i] {
			t.Errorf("row %d: grid q = %d, want %d", i, got, wantGridQ[i])
		}
		// The paper's l values achieve the advertised eps <= 1e-3 exactly.
		if eps := floatCell(t, tbl, i, 5); eps > EpsTarget {
			t.Errorf("row %d: exact eps %v exceeds 1e-3", i, eps)
		}
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	tbl, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	wantQ := []int{15, 38, 64, 94, 123, 152}
	wantA := []int{11, 63, 162, 307, 503, 749}
	wantThQ := []int{15, 55, 120, 210, 325, 465}
	wantGridQ := []int{16, 51, 81, 144, 184, 224}
	for i := range tbl.Rows {
		if got := cell(t, tbl, i, 3); got != wantQ[i] {
			t.Errorf("row %d: mask q = %d, want %d", i, got, wantQ[i])
		}
		if got := cell(t, tbl, i, 5); got != wantA[i] {
			t.Errorf("row %d: mask A = %d, want %d", i, got, wantA[i])
		}
		if got := cell(t, tbl, i, 8); got != wantThQ[i] {
			t.Errorf("row %d: threshold q = %d, want %d", i, got, wantThQ[i])
		}
		if got := cell(t, tbl, i, 10); got != wantGridQ[i] {
			t.Errorf("row %d: grid q = %d, want %d", i, got, wantGridQ[i])
		}
		// Optimal-k eps must be no worse than the paper-choice eps.
		if best, std := floatCell(t, tbl, i, 7), floatCell(t, tbl, i, 6); best > std*1.0000001 {
			t.Errorf("row %d: best-k eps %v worse than standard %v", i, best, std)
		}
	}
}

func TestTable1(t *testing.T) {
	tbl := Table1(100, 4)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	md := tbl.Markdown()
	for _, want := range []string{"sqrt(1/n) = 0.1000", "floor((n-1)/3) = 33", "floor((n-1)/4) = 24"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	left, right, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(left.Series) != 3 || len(right.Series) != 4 {
		t.Fatalf("series counts: left %d, right %d", len(left.Series), len(right.Series))
	}
	// Headline claim: for p in [0.5, 0.7] the probabilistic systems beat
	// the strict lower bound (and a fortiori every strict system).
	bound := left.Series[2]
	for _, prob := range left.Series[:2] {
		for i, p := range prob.X {
			if p >= 0.5 && p <= 0.7 {
				if prob.Y[i] >= bound.Y[i] {
					t.Errorf("%s at p=%v: %v not below strict bound %v", prob.Name, p, prob.Y[i], bound.Y[i])
				}
			}
		}
	}
	// Against the threshold construction the probabilistic curve must be
	// decisively below for all interior p (paper: "decisively beat them").
	for pair := 0; pair < 2; pair++ {
		prob, th := right.Series[2*pair], right.Series[2*pair+1]
		for i, p := range prob.X {
			if p >= 0.05 && p <= 0.95 {
				if prob.Y[i] > th.Y[i]*1.0000001 {
					t.Errorf("%s at p=%v: %v above threshold %v", prob.Name, p, prob.Y[i], th.Y[i])
				}
			}
		}
	}
	if len(left.Notes) == 0 || len(right.Notes) == 0 {
		t.Error("crossover annotations missing")
	}
}

func TestFigure2And3Shape(t *testing.T) {
	// The win window over the strict bound narrows as quorums grow: the
	// masking construction needs q=44 at n=100 (fault tolerance 57), so its
	// F_p takes off around p = 1 - q/n ≈ 0.56, exactly as in the paper's
	// Figure 3.
	windows := map[string]float64{"figure2": 0.65, "figure3": 0.54}
	for name, gen := range map[string]func() (*Figure, *Figure, error){
		"figure2": Figure2, "figure3": Figure3,
	} {
		left, right, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bound := left.Series[len(left.Series)-1]
		for _, prob := range left.Series[:len(left.Series)-1] {
			for i, p := range prob.X {
				if p >= 0.5 && p <= windows[name] && prob.Y[i] >= bound.Y[i] {
					t.Errorf("%s %s at p=%v: %v not below bound %v", name, prob.Name, p, prob.Y[i], bound.Y[i])
				}
			}
		}
		// Threshold Byzantine constructions have larger quorums, so the
		// probabilistic curves must beat them even more decisively.
		for pair := 0; pair*2+1 < len(right.Series); pair++ {
			prob, th := right.Series[2*pair], right.Series[2*pair+1]
			for i, p := range prob.X {
				if p >= 0.05 && p <= 0.95 && prob.Y[i] > th.Y[i]*1.0000001 {
					t.Errorf("%s %s at p=%v above threshold baseline", name, prob.Name, p)
				}
			}
		}
	}
}

func TestFigureCSVAndASCII(t *testing.T) {
	left, _, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	csv := left.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 102 { // header + 101 points
		t.Errorf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "p,") {
		t.Errorf("csv header = %q", lines[0])
	}
	art := left.ASCII(60, 20)
	if !strings.Contains(art, "[1]") || !strings.Contains(art, "|") {
		t.Errorf("ascii plot missing structure:\n%s", art)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "with,comma"}, {"2", `with"quote`}},
		Notes:   []string{"a note"},
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "> a note") {
		t.Errorf("markdown:\n%s", md)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, `"with,comma"`) || !strings.Contains(csv, `"with""quote"`) {
		t.Errorf("csv quoting:\n%s", csv)
	}
}

func TestCrossovers(t *testing.T) {
	a := Series{X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 3, 5}}
	b := Series{X: []float64{0, 1, 2, 3}, Y: []float64{2, 2, 2, 2}}
	xo := Crossovers(a, b)
	if len(xo) != 1 || xo[0] != 2 {
		t.Errorf("crossovers = %v, want [2]", xo)
	}
	if got := Crossovers(b, b); len(got) != 0 {
		t.Errorf("self crossovers = %v", got)
	}
}

func TestAblationMaskingK(t *testing.T) {
	tbl, err := AblationMaskingK(100, 38, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 38 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The paper's k and the optimum must both be marked.
	var sawPaper, sawBest bool
	for _, row := range tbl.Rows {
		if strings.Contains(row[4], "paper") {
			sawPaper = true
		}
		if strings.Contains(row[4], "optimal") {
			sawBest = true
		}
	}
	if !sawPaper || !sawBest {
		t.Error("markers missing")
	}
	// P(X>=k) decreases in k, P(Y<k) increases in k.
	for i := 1; i < len(tbl.Rows); i++ {
		if floatCell(t, tbl, i, 1) > floatCell(t, tbl, i-1, 1)*1.0000001 {
			t.Errorf("P(X>=k) not decreasing at row %d", i)
		}
		if floatCell(t, tbl, i, 2)+1e-12 < floatCell(t, tbl, i-1, 2)-1e-9 {
			t.Errorf("P(Y<k) not increasing at row %d", i)
		}
	}
}

func TestAblationBoundTightness(t *testing.T) {
	tbl, err := AblationBoundTightness(900)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Exact must never exceed the bound: ratio <= 1.
	for i := range tbl.Rows {
		if r := floatCell(t, tbl, i, 4); r > 1.0000001 {
			t.Errorf("row %d: intersecting ratio %v > 1", i, r)
		}
		if r := floatCell(t, tbl, i, 7); r > 1.0000001 {
			t.Errorf("row %d: dissemination ratio %v > 1", i, r)
		}
	}
}

func TestAblationDiffusion(t *testing.T) {
	// n=25, q=5: eps ≈ 0.29, big enough that the decay is visible with few
	// trials. After 6 fanout-2 rounds the update has reached every server.
	tbl, err := AblationDiffusion(25, 5, 6, 2, 120, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	first := floatCell(t, tbl, 0, 3)
	last := floatCell(t, tbl, len(tbl.Rows)-1, 3)
	if first < 0.15 {
		t.Errorf("round-0 rate %v too small to be eps≈0.29", first)
	}
	if last > 0.02 {
		t.Errorf("final rate %v: diffusion did not drive eps toward zero", last)
	}
}

func TestAblationLoadFaultTradeoff(t *testing.T) {
	tbl, err := AblationLoadFaultTradeoff()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3*len(TableSizes) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// For every strict system, A <= n*L (the trade-off); the probabilistic
	// system must break it at the larger n.
	for i := 0; i < len(tbl.Rows); i += 3 {
		for j := 0; j < 2; j++ { // majority, grid
			a := floatCell(t, tbl, i+j, 3)
			nl := floatCell(t, tbl, i+j, 4)
			if a > nl+0.51 { // the bound holds up to rounding of q
				t.Errorf("strict row %d: A=%v exceeds n*L=%v", i+j, a, nl)
			}
		}
	}
	// Last size (n=900): probabilistic A far exceeds n*L.
	i := (len(TableSizes) - 1) * 3
	a := floatCell(t, tbl, i+2, 3)
	nl := floatCell(t, tbl, i+2, 4)
	if a < 2*nl {
		t.Errorf("probabilistic system does not escape the trade-off: A=%v, n*L=%v", a, nl)
	}
}

func TestTableB(t *testing.T) {
	want := map[int]int{25: 2, 100: 4, 225: 7, 400: 9, 625: 12, 900: 14}
	for n, b := range want {
		if got := TableB(n); got != b {
			t.Errorf("TableB(%d) = %d, want %d", n, got, b)
		}
	}
}
