package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package — the unit the
// analyzers run over. Only non-test files are loaded: the invariants guard
// the code production runs, and tests legitimately reach for wall time and
// ad-hoc randomness.
type Package struct {
	// PkgPath is the import path; Name the package name ("main" for
	// commands, which several analyzers exempt).
	PkgPath string
	Name    string
	// Dir is the package's source directory.
	Dir string
	// ModulePath and GoVersion come from the enclosing module: ModulePath
	// identifies the module root package, GoVersion (e.g. "1.24") selects
	// language semantics.
	ModulePath string
	GoVersion  string

	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Export     string
	Module     *struct {
		Path      string
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// Load lists, parses and type-checks the packages matching patterns,
// resolved relative to dir. It shells out to `go list -deps -export`, which
// compiles every dependency's export data into the build cache; the
// returned target packages are then type-checked from source against that
// export data with a bare go/types configuration. This is the stdlib-only
// equivalent of golang.org/x/tools/go/packages.Load(LoadAllSyntax) for a
// module whose dependencies all resolve locally.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Standard,DepOnly,Export,Module,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var targets []*listPkg
	exports := map[string]string{} // import path -> export data file
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	// The gc importer resolves every import from the export data `go list
	// -export` just compiled. Target packages are type-checked from source;
	// their intra-module imports load from export data too, which is fine
	// because the analyzers match types by (package path, name), never by
	// object identity across packages.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typecheck(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheck parses and type-checks one listed package from source.
func typecheck(fset *token.FileSet, imp types.Importer, t *listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		PkgPath: t.ImportPath,
		Name:    t.Name,
		Dir:     t.Dir,
		Fset:    fset,
		Syntax:  files,
	}
	if t.Module != nil {
		pkg.ModulePath = t.Module.Path
		pkg.GoVersion = t.Module.GoVersion
	}
	conf := types.Config{
		Importer: imp,
		// Keep language semantics aligned with the module's go directive.
		GoVersion: goVersionDirective(pkg.GoVersion),
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tp, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
	}
	pkg.Types = tp
	pkg.TypesInfo = info
	return pkg, nil
}

// goVersionDirective converts a module go directive ("1.24") to the
// types.Config.GoVersion form ("go1.24"); empty stays empty (no limit).
func goVersionDirective(v string) string {
	if v == "" {
		return ""
	}
	return "go" + v
}
