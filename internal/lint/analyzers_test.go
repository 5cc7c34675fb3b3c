package lint

// One fixture module per analyzer (see linttest_test.go for the harness).
// The wallclock and globalrand fixtures reproduce the two real violations
// this PR scrubbed out of tcp.go: the wall-clock uptime stamp and the
// time.Now().UnixNano()-seeded diffusion RNG.

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestWallclock(t *testing.T)  { runFixture(t, "wallclock", Wallclock) }
func TestRawgo(t *testing.T)      { runFixture(t, "rawgo", Rawgo) }
func TestGlobalrand(t *testing.T) { runFixture(t, "globalrand", Globalrand) }
func TestLockspan(t *testing.T)   { runFixture(t, "lockspan", Lockspan) }
func TestEpsblind(t *testing.T)   { runFixture(t, "epsblind", Epsblind) }
func TestAtomic(t *testing.T)     { runFixture(t, "atomic", Atomic) }
func TestShadow(t *testing.T)     { runFixture(t, "shadow", Shadow) }
func TestNilness(t *testing.T)    { runFixture(t, "nilness", Nilness) }

// TestDeadexport loads the fixture module whole, then without its root.
// Whole, every want row must match and the one stale allow must be
// reported (a directive and a want cannot share a line, so that is checked
// by hand). Without the root, the alias and the call it makes are out of
// sight, so the rule must say nothing rather than flag what the root uses.
func TestDeadexport(t *testing.T) {
	diags, pkgs := loadFixture(t, "deadexport", Deadexport)
	var rest []Diagnostic
	stale := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "unused //pqslint:allow deadexport") {
			stale++
			continue
		}
		rest = append(rest, d)
	}
	if stale != 1 {
		t.Errorf("want 1 unused deadexport allow reported, got %d", stale)
	}
	matchWants(t, rest, pkgs)

	pkgs, err := Load(filepath.Join("testdata", "deadexport"), "./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err = Run(pkgs, []*Analyzer{Deadexport})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("load without the module root reported %s", d)
	}
}

// TestRepoClean runs the full suite over the real tree: the repository
// must stay lint-clean, which is the same gate `make lint` enforces in CI.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d.String())
	}
}
