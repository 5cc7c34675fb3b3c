package lint

// This file is the fixture harness the per-analyzer tests run on: a small
// reimplementation of golang.org/x/tools/go/analysis/analysistest (which
// the container cannot fetch) over this package's own Load/Run pipeline.
//
// Each fixture under testdata/<name> is a self-contained module (own
// go.mod, module path fixture.example) so Load's `go list` works there and
// the suffix-based package scoping (internal/transport, internal/vtime,
// internal/quorum, ...) matches the same rules as the real tree.
// Expectations are written as trailing comments on the offending line:
//
//	ch <- 1 // want "channel send while mu is held"
//
// Every diagnostic must match an unconsumed want on its line, and every
// want must be consumed by exactly one diagnostic. The regex is matched
// against "[analyzer] message", so a want can pin the analyzer too.

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runFixture loads testdata/<name>, runs the given analyzers over every
// package in it, and compares diagnostics against the `// want` comments.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	diags, pkgs := loadFixture(t, name, analyzers...)
	matchWants(t, diags, pkgs)
}

// matchWants checks diags against the `// want` comments in pkgs.
func matchWants(t *testing.T, diags []Diagnostic, pkgs []*Package) {
	t.Helper()
	wants := collectWants(t, pkgs)
	for _, d := range diags {
		key := lineKey(d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString("["+d.Analyzer+"] "+d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", relPos(d.Pos), d.Analyzer, d.Message)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matched want %q", filepath.Base(w.file), w.line, w.pattern)
			}
		}
	}
}

// loadFixture loads and analyzes one fixture module.
func loadFixture(t *testing.T, name string, analyzers ...*Analyzer) ([]Diagnostic, []*Package) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers over fixture %s: %v", name, err)
	}
	return diags, pkgs
}

// want is one parsed expectation: a regex anchored to a file and line.
type want struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
	used    bool
}

// wantStringRE matches one double-quoted Go string literal inside a want
// comment's tail.
var wantStringRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants parses every `// want "re" ["re" ...]` comment in the loaded
// fixture packages, keyed by the line the comment sits on.
func collectWants(t *testing.T, pkgs []*Package) map[string][]*want {
	t.Helper()
	out := map[string][]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					body, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					quoted := wantStringRE.FindAllString(body, -1)
					if len(quoted) == 0 {
						t.Fatalf("%s: want comment with no quoted pattern: %s", relPos(pos), c.Text)
					}
					for _, q := range quoted {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: unquoting want pattern %s: %v", relPos(pos), q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: compiling want pattern %q: %v", relPos(pos), pat, err)
						}
						key := lineKey(pos.Filename, pos.Line)
						out[key] = append(out[key], &want{
							file: pos.Filename, line: pos.Line, pattern: pat, re: re,
						})
					}
				}
			}
		}
	}
	return out
}

// relPos renders a position with just the base filename, keeping test
// output stable across checkouts.
func relPos(p token.Position) string {
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Column)
}
