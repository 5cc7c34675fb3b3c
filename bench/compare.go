package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// spread is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives. NaN for fewer than two values.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// values collects one end-to-end metric over a workload's runs.
func (h *history) values(name string) []float64 {
	var xs []float64
	for _, e := range h.EndToEnd {
		if m, ok := e.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func (h *history) failures() (failed, attempted int) {
	for _, e := range h.EndToEnd {
		failed += e.Failed
		attempted += e.Attempted
	}
	return
}

// compareFiles applies each end-to-end metric's bound to every workload of
// two -all documents: one row per (workload, metric) with both medians, the
// ratio b/a, how much worse b is as a share of a, and a verdict. A row is
// `unresolved`, not `unchanged`, when either side's own run-to-run spread
// exceeds the bound (run -all with -repeat to give each side a spread). The
// error is non-nil when any row regressed.
func compareFiles(pathA, pathB string, out io.Writer) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "a: %s seed %d commit %.12s\nb: %s seed %d commit %.12s\n", pathA, a.Record.Seed, a.Record.Commit, pathB, b.Record.Seed, b.Record.Commit)
	fmt.Fprintln(tw, "workload\tmetric\ta (median)\tb (median)\tb/a\tworse by\tbound\tspread a\tspread b\tverdict")
	regressed := 0
	for _, w := range workloads {
		ha, hb := a.Workloads[w.name], b.Workloads[w.name]
		if ha == nil || hb == nil {
			fmt.Fprintf(tw, "%s\t(missing from one document)\n", w.name)
			regressed++
			continue
		}
		for _, d := range endToEnd {
			va, vb := ha.values(d.name), hb.values(d.name)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.higherBetter {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "unchanged"
			switch {
			case worse > d.bound:
				verdict = "regressed"
				regressed++
			case sa > d.bound || sb > d.bound:
				verdict = "unresolved"
			case worse < -d.bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g\t%.4g\t%.3f of %.4g\t%+.1f%%\t%.0f%%\t%s\t%s\t%s\n",
				w.name, d.name, d.unit, ma, mb, mb/ma, ma, 100*worse, 100*d.bound, percent(sa), percent(sb), verdict)
		}
		fa, na := ha.failures()
		fb, nb := hb.failures()
		verdict := "unchanged"
		if float64(fb)*float64(na) > float64(fa)*float64(nb) { // fb/nb > fa/na: any increase counts
			verdict = "regressed"
			regressed++
		}
		fmt.Fprintf(tw, "%s\tfail_share (ratio)\t%d/%d\t%d/%d\t\t\tany increase\t\t\t%s\n", w.name, fa, na, fb, nb, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}

func percent(x float64) string {
	if math.IsNaN(x) {
		return "n/a (1 run)"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}
