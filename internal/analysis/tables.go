package analysis

import (
	"fmt"
	"math"

	"pqs/internal/core"
	"pqs/internal/quorum"
)

// TableSizes are the universe sizes used throughout Section 6.
var TableSizes = []int{25, 100, 225, 400, 625, 900}

// PaperEll2 are the ℓ values of Table 2 (ε-intersecting systems).
var PaperEll2 = map[int]float64{25: 1.80, 100: 2.20, 225: 2.40, 400: 2.45, 625: 2.48, 900: 2.50}

// PaperEll3 are the ℓ values of Table 3 (dissemination systems).
var PaperEll3 = map[int]float64{25: 2.20, 100: 2.40, 225: 2.47, 400: 2.50, 625: 2.52, 900: 2.57}

// PaperEll4 are the ℓ values of Table 4 (masking systems; ℓ = q/√n there).
var PaperEll4 = map[int]float64{25: 3.00, 100: 3.80, 225: 4.27, 400: 4.70, 625: 4.92, 900: 5.07}

// TableB returns the Byzantine threshold used in Tables 3 and 4:
// b = floor((√n - 1)/2), "the largest b for which all the constructions in
// the table work".
func TableB(n int) int {
	s := int(math.Sqrt(float64(n)))
	return (s - 1) / 2
}

// EpsTarget is the consistency guarantee of Section 6: every probabilistic
// construction shown there claims ε ≤ .001.
const EpsTarget = 1e-3

// Table1 reproduces the Section 2 summary (Table I): lower bounds on load
// and upper bounds on resilience per system type, instantiated at a
// representative n and b so the numbers are concrete.
func Table1(n, b int) *Table {
	t := &Table{
		ID:      "table1",
		Title:   fmt.Sprintf("Bounds on load and resilience of strict quorum system types (n=%d, b=%d)", n, b),
		Columns: []string{"bound", "strict", "b-dissemination", "b-masking"},
	}
	t.Rows = append(t.Rows, []string{
		"load lower bound",
		fmt.Sprintf("sqrt(1/n) = %.4f", core.StrictLoadLowerBound(n)),
		fmt.Sprintf("sqrt((b+1)/n) = %.4f", core.DissemLoadLowerBound(n, b)),
		fmt.Sprintf("sqrt((2b+1)/n) = %.4f", core.MaskLoadLowerBound(n, b)),
	})
	t.Rows = append(t.Rows, []string{
		"max resilience b",
		"n/a",
		fmt.Sprintf("floor((n-1)/3) = %d", quorum.MaxDissemB(n)),
		fmt.Sprintf("floor((n-1)/4) = %d", quorum.MaxMaskB(n)),
	})
	return t
}

// Table2 reproduces Table 2: quorum size and fault tolerance of the
// ε-intersecting construction (with the paper's ℓ) against the threshold
// and grid strict systems, extended with the exact ε our computation gives
// and the minimal quorum size that meets ε ≤ .001 exactly.
func Table2() (*Table, error) {
	t := &Table{
		ID:    "table2",
		Title: "Properties of various quorum systems (paper Table 2)",
		Columns: []string{
			"n", "l", "eps-int q", "eps-int A", "exact eps", "min q for eps<=1e-3",
			"threshold q", "threshold A", "grid q", "grid A",
		},
		Notes: []string{
			"exact eps is C(n-q,q)/C(n,q); the paper's l values give eps slightly above 1e-3 at the smallest n; the 'min q' column gives the smallest q that meets it.",
			"threshold A = n-q+1 (the paper lists q, which differs by one for even n).",
		},
	}
	for _, n := range TableSizes {
		ell := PaperEll2[n]
		e, err := core.NewEpsilonIntersectingEll(n, ell)
		if err != nil {
			return nil, err
		}
		minQ, err := core.MinQForEpsilon(n, EpsTarget)
		if err != nil {
			return nil, err
		}
		th, err := quorum.NewMajority(n)
		if err != nil {
			return nil, err
		}
		g, err := quorum.NewGrid(n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.2f", ell),
			fmt.Sprint(e.QuorumSize()),
			fmt.Sprint(e.FaultTolerance()),
			fmt.Sprintf("%.2e", e.Epsilon()),
			fmt.Sprint(minQ),
			fmt.Sprint(th.QuorumSize()),
			fmt.Sprint(th.FaultTolerance()),
			fmt.Sprint(g.QuorumSize()),
			fmt.Sprint(g.FaultTolerance()),
		})
	}
	return t, nil
}

// Table3 reproduces Table 3: dissemination quorum systems with
// b = floor((√n-1)/2).
func Table3() (*Table, error) {
	t := &Table{
		ID:    "table3",
		Title: "Properties of various dissemination quorum systems (paper Table 3)",
		Columns: []string{
			"n", "b", "l", "dissem q", "dissem A", "exact eps",
			"threshold q", "threshold A", "grid q", "grid A",
		},
		Notes: []string{
			"the paper's l values achieve exact eps <= 1e-3 in every row.",
			"n=225 threshold row: the published table prints 166/60; the construction formulas give 117/109 (OCR corruption; all other rows match the formulas).",
			"grid A = sqrt(n)-r+1: one crash in each of that many rows leaves fewer than r clean rows (the paper lists sqrt(n)).",
		},
	}
	for _, n := range TableSizes {
		b := TableB(n)
		ell := PaperEll3[n]
		d, err := core.NewDisseminationEll(n, b, ell)
		if err != nil {
			return nil, err
		}
		th, err := quorum.NewDissemThreshold(n, b)
		if err != nil {
			return nil, err
		}
		g, err := quorum.NewDissemGrid(n, b)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(b),
			fmt.Sprintf("%.2f", ell),
			fmt.Sprint(d.QuorumSize()),
			fmt.Sprint(d.FaultTolerance()),
			fmt.Sprintf("%.2e", d.Epsilon()),
			fmt.Sprint(th.QuorumSize()),
			fmt.Sprint(th.FaultTolerance()),
			fmt.Sprint(g.QuorumSize()),
			fmt.Sprint(g.FaultTolerance()),
		})
	}
	return t, nil
}

// Table4 reproduces Table 4: masking quorum systems with
// b = floor((√n-1)/2) and the paper's ℓ = q/√n parameterization.
func Table4() (*Table, error) {
	t := &Table{
		ID:    "table4",
		Title: "Properties of various masking quorum systems (paper Table 4)",
		Columns: []string{
			"n", "b", "l", "mask q", "k", "mask A", "exact eps", "eps @ best k",
			"threshold q", "threshold A", "grid q", "grid A",
		},
		Notes: []string{
			"k = ceil(q^2/2n) per Section 5.3; 'eps @ best k' shows the k minimizing exact eps (the paper notes the balanced choice is marginally better).",
		},
	}
	for _, n := range TableSizes {
		b := TableB(n)
		q := core.QFromEll(n, PaperEll4[n])
		m, err := core.NewMasking(n, q, b)
		if err != nil {
			return nil, err
		}
		_, bestEps, err := BestMaskingK(n, q, b)
		if err != nil {
			return nil, err
		}
		th, err := quorum.NewMaskThreshold(n, b)
		if err != nil {
			return nil, err
		}
		g, err := quorum.NewMaskGrid(n, b)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(b),
			fmt.Sprintf("%.2f", PaperEll4[n]),
			fmt.Sprint(m.QuorumSize()),
			fmt.Sprint(m.K()),
			fmt.Sprint(m.FaultTolerance()),
			fmt.Sprintf("%.2e", m.Epsilon()),
			fmt.Sprintf("%.2e", bestEps),
			fmt.Sprint(th.QuorumSize()),
			fmt.Sprint(th.FaultTolerance()),
			fmt.Sprint(g.QuorumSize()),
			fmt.Sprint(g.FaultTolerance()),
		})
	}
	return t, nil
}

// BestMaskingK scans all thresholds 1..q and returns the k minimizing the
// exact masking error, with that error. This is the "balance the bounds on
// P(X >= k) and P(Y < k)" refinement the paper mentions at the end of
// Section 5.4.
func BestMaskingK(n, q, b int) (int, float64, error) {
	bestK, bestEps := 0, math.Inf(1)
	for k := 1; k <= q; k++ {
		m, err := core.NewMaskingWithK(n, q, b, k)
		if err != nil {
			return 0, 0, err
		}
		if eps := m.Epsilon(); eps < bestEps {
			bestK, bestEps = k, eps
		}
	}
	return bestK, bestEps, nil
}
