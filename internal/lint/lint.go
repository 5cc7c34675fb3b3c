// Package lint is the determinism-invariant static analysis suite behind
// cmd/pqs-lint. It enforces, at compile time, the invariants that make the
// virtual-time replay story (PRs 3–5) sound:
//
//   - wallclock: no wall-clock reads or timers outside internal/vtime and
//     main packages — time must flow through an injected vtime.Clock, or a
//     SimClock run cannot replay it.
//   - rawgo: no bare go statements in the virtual-time-enrolled packages —
//     a goroutine the SimClock cannot see defeats quiescence detection.
//   - globalrand: no process-global or wall-clock-seeded randomness in
//     deterministic packages — randomness must be seed-derived so a run is
//     a function of its seed.
//   - lockspan: no blocking operations (channel handoffs, clock sleeps,
//     transport calls) while a sync mutex is held.
//   - epsblind: the hedge-delay and spare-promotion paths of
//     internal/register must not branch on server identities, mechanizing
//     the ε-preservation argument (hedging conditioned only on time and
//     observed failure keeps the completing access set the strategy's
//     sample conditioned on liveness).
//
// plus deadexport, which guards the surface rather than the replay: no
// package-level identifier under internal/ that only tests reference. It
// is the one rule that reads the whole load (a module-wide reference index
// the runner builds before its per-package loop); a seam a test of live
// behaviour needs stays under an allow naming who uses it.
//
// and lite reimplementations of the stock vet passes `go vet` itself does
// not run or runs more narrowly (nilness, shadow, atomic); copylocks and
// loopclosure are left to `go vet`, which make ci runs beside this suite. The
// framework mirrors the golang.org/x/tools/go/analysis API shape but is
// self-contained on the standard library: the container this repo builds in
// has no module proxy, so the loader (load.go) drives `go list -export` and
// go/types directly instead of depending on x/tools.
//
// # Suppressions
//
// A finding that is genuinely intended (a CLI main that wants wall time, a
// wall-clock-only fallback path) is silenced in place with
//
//	//pqslint:allow <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory — a directive without one is itself a diagnostic — and unused
// or unknown-analyzer directives are flagged so suppressions cannot rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check. It mirrors the x/tools
// analysis.Analyzer shape (Name, Doc, Run over a Pass) so the checks read
// like standard vet passes and could be ported onto the real driver if the
// dependency ever becomes available.
type Analyzer struct {
	// Name is the analyzer's identifier: used in diagnostics, -only
	// selections, and //pqslint:allow directives.
	Name string
	// Doc is the one-paragraph description printed by pqs-lint -list.
	Doc string
	// Run performs the check on one package, reporting findings through
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Pkg       *Package
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	refs   *refIndex // module-wide, for deadexport
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way compilers do, so editors and CI log
// scrapers pick the location up: file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// pathHasSuffix reports whether pkgPath ends with the path suffix want on a
// package-path-segment boundary: "pqs/internal/vtime" matches
// "internal/vtime", "fixture.example/internal/vtime" does too, but
// "a/notinternal/vtime" does not. Matching by suffix rather than full path
// keeps the analyzers honest under analysistest-style fixture modules,
// whose module path differs from the real tree's.
func pathHasSuffix(pkgPath, want string) bool {
	if pkgPath == want {
		return true
	}
	return strings.HasSuffix(pkgPath, "/"+want)
}

// funcOf resolves the *types.Func a selector or identifier refers to, or
// nil. It sees through method values, method expressions and plain calls.
func funcOf(info *types.Info, e ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// exprString renders e compactly for use in messages and for matching a
// mutex receiver across Lock/Unlock pairs.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
