package lint

// One fixture module per analyzer (see linttest_test.go for the harness).
// The wallclock and globalrand fixtures reproduce the two real violations
// this PR scrubbed out of tcp.go: the wall-clock uptime stamp and the
// time.Now().UnixNano()-seeded diffusion RNG.

import "testing"

func TestWallclock(t *testing.T)  { runFixture(t, "wallclock", Wallclock) }
func TestRawgo(t *testing.T)      { runFixture(t, "rawgo", Rawgo) }
func TestGlobalrand(t *testing.T) { runFixture(t, "globalrand", Globalrand) }
func TestLockspan(t *testing.T)   { runFixture(t, "lockspan", Lockspan) }
func TestEpsblind(t *testing.T)   { runFixture(t, "epsblind", Epsblind) }
func TestAtomic(t *testing.T)     { runFixture(t, "atomic", Atomic) }
func TestShadow(t *testing.T)     { runFixture(t, "shadow", Shadow) }
func TestNilness(t *testing.T)    { runFixture(t, "nilness", Nilness) }

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
