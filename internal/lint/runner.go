package lint

import (
	"fmt"
	"sort"
)

// All returns the full analyzer suite in reporting order: the five
// determinism invariants first, then the vet-lite passes, then deadexport.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock,
		Rawgo,
		Globalrand,
		Lockspan,
		Epsblind,
		Atomic,
		Shadow,
		Nilness,
		Deadexport,
	}
}

// Run executes analyzers over pkgs, applies //pqslint:allow suppressions,
// and returns the surviving diagnostics sorted by position. Directive
// problems (missing reason, unknown analyzer, unused suppression) are
// reported under the pseudo-analyzer "pqslint" and cannot themselves be
// suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}

	refs := indexRefs(pkgs)
	if !refs.root {
		delete(ran, Deadexport.Name) // inert without every referrer: its allows are idle, not stale
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		idx := collectDirectives(pkg, known)
		out = append(out, idx.diags...)
		for _, a := range analyzers {
			var found []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Pkg:       pkg,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Types:     pkg.Types,
				TypesInfo: pkg.TypesInfo,
				refs:      refs,
				report:    func(d Diagnostic) { found = append(found, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range found {
				if !idx.suppresses(d) {
					out = append(out, d)
				}
			}
		}
		out = append(out, idx.unused(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}
