package lint

import (
	"go/ast"
	"go/types"
)

// globalrandScoped lists the packages whose randomness must be a function
// of configured seeds: every draw from the process-global math/rand source
// (shared, racy, seeded who-knows-when) or from a wall-clock-derived seed
// makes a recorded history unreproducible, even when every timer is
// virtual. The set is the rawgo scope plus the sampling/data layers, the
// load harness and the module root package (the facade constructs the
// diffusion RNG).
var globalrandScoped = append([]string{
	"internal/quorum",
	"internal/replica",
	"internal/wire",
	"internal/load",
}, rawgoScoped...)

// globalrandFuncs are the package-level math/rand (and v2) functions that
// draw from the process-global source.
var globalrandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true, "N": true,
}

// Globalrand forbids process-global and wall-clock-seeded randomness in the
// deterministic packages. Randomness there must be seed-derived or
// counter-hashed (the transport's per-link draws) so that a run is a pure
// function of its seed, and a seeded stream has one constructor:
// quorum.NewRand(seed, kind, index), which keys streams apart by
// construction. Building a source any other way (rand.NewSource, v2's
// NewPCG or NewChaCha8, or keying a ChaCha8 by hand) is a finding outside
// internal/quorum. Production entropy defaults belong in main packages or
// crypto/rand, not in the deterministic core.
var Globalrand = &Analyzer{
	Name: "globalrand",
	Doc: "forbid package-level math/rand functions, wall-clock-seeded sources and sources " +
		"built outside quorum.NewRand in deterministic packages",
	Run: runGlobalrand,
}

func runGlobalrand(pass *Pass) error {
	if pass.Pkg.Name == "main" {
		return nil
	}
	scoped := pass.Pkg.ModulePath != "" && pass.Pkg.PkgPath == pass.Pkg.ModulePath
	for _, suffix := range globalrandScoped {
		if pathHasSuffix(pass.Pkg.PkgPath, suffix) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}
	inQuorum := pathHasSuffix(pass.Pkg.PkgPath, "internal/quorum")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil {
				return true
			}
			if sig.Recv() != nil {
				if !inQuorum && fn.FullName() == "(*math/rand/v2.ChaCha8).Seed" {
					pass.Reportf(sel.Pos(), "math/rand/v2.ChaCha8.Seed keys a stream by hand: use quorum.NewRand")
				}
				return true
			}
			switch {
			case globalrandFuncs[fn.Name()]:
				pass.Reportf(sel.Pos(),
					"%s.%s draws from the process-global source: use a seed-derived *rand.Rand so the run replays from its seed",
					path, fn.Name())
			case fn.Name() == "NewSource" || fn.Name() == "NewPCG" || fn.Name() == "NewChaCha8":
				if call := enclosingCall(f, sel); call != nil && wallClockSeeded(pass.TypesInfo, call) {
					pass.Reportf(sel.Pos(),
						"%s.%s seeded from the wall clock: derive the seed from configuration (crypto/rand for production defaults) so the run replays",
						path, fn.Name())
				} else if !inQuorum {
					pass.Reportf(sel.Pos(), "%s.%s builds a stream outside internal/quorum: use quorum.NewRand", path, fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// enclosingCall returns the CallExpr whose Fun is sel, or nil when sel is
// referenced without being called.
func enclosingCall(f *ast.File, sel *ast.SelectorExpr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == sel {
			found = call
			return false
		}
		return true
	})
	return found
}

// wallClockSeeded reports whether any argument subtree of call reads the
// wall clock (a reference to time.Now — the canonical
// time.Now().UnixNano() seed pattern and all its variations).
func wallClockSeeded(info *types.Info, call *ast.CallExpr) bool {
	seeded := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if seeded {
				return false
			}
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if fn, _ := info.Uses[sel.Sel].(*types.Func); fn != nil &&
					fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Now" {
					seeded = true
					return false
				}
			}
			return true
		})
	}
	return seeded
}
