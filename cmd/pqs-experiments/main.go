// Command pqs-experiments regenerates every table and figure of the paper's
// evaluation (Section 6 plus the Table 1 bounds summary) and the ablation
// and validation studies of package analysis. Tables print to stdout as
// markdown and figures as ASCII plots — the same seeds every run, so stdout
// is byte-for-byte reproducible and `make paper` commits it as
// EXPERIMENTS.md — and everything is also written to an output directory
// as CSV and markdown. The closing summary goes to stderr.
//
// Usage:
//
//	pqs-experiments [-out results] [-skip-slow]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pqs/internal/analysis"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pqs-experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "results", "directory for CSV/markdown output")
	skipSlow := flag.Bool("skip-slow", false, "skip the Monte-Carlo ablations")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	var tables []*analysis.Table
	t1 := analysis.Table1(100, 4)
	tables = append(tables, t1)
	for _, gen := range []func() (*analysis.Table, error){
		analysis.Table2, analysis.Table3, analysis.Table4,
	} {
		t, err := gen()
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}

	ablK, err := analysis.AblationMaskingK(100, 38, 4)
	if err != nil {
		return err
	}
	tables = append(tables, ablK)
	ablBound, err := analysis.AblationBoundTightness(900)
	if err != nil {
		return err
	}
	tables = append(tables, ablBound)
	ablTrade, err := analysis.AblationLoadFaultTradeoff()
	if err != nil {
		return err
	}
	tables = append(tables, ablTrade)
	if !*skipSlow {
		ablDiff, err := analysis.AblationDiffusion(49, 7, 6, 1, 400, 2026)
		if err != nil {
			return err
		}
		tables = append(tables, ablDiff)
		loadVal, err := analysis.TableLoadValidation(20000, 2027)
		if err != nil {
			return err
		}
		tables = append(tables, loadVal)
		availVal, err := analysis.TableAvailabilityValidation(20000, 2028)
		if err != nil {
			return err
		}
		tables = append(tables, availVal)
	}

	for _, t := range tables {
		fmt.Println(t.Markdown())
		if err := writeFile(*out, t.ID+".csv", t.CSV()); err != nil {
			return err
		}
		if err := writeFile(*out, t.ID+".md", t.Markdown()); err != nil {
			return err
		}
	}

	var figures []*analysis.Figure
	for _, gen := range []func() (*analysis.Figure, *analysis.Figure, error){
		analysis.Figure1, analysis.Figure2, analysis.Figure3,
	} {
		l, r, err := gen()
		if err != nil {
			return err
		}
		figures = append(figures, l, r)
	}
	scaling, err := analysis.FigureScaling()
	if err != nil {
		return err
	}
	figures = append(figures, scaling)
	for _, f := range figures {
		fmt.Println(f.ASCII(72, 22))
		if err := writeFile(*out, f.ID+".csv", f.CSV()); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "wrote %d tables and %d figures to %s\n", len(tables), len(figures), *out)
	return nil
}

func writeFile(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}
