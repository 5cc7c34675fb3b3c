package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// Deadexport flags a package-level func, type, var, const or method under
// internal/ that no non-test code references (its own declaration, its
// receiver's methods and blank `var _ I = (*T)(nil)` assertions do not
// count), except methods an interface names and exported methods of a type
// a non-internal package names. Inert unless the load has the module root.
var Deadexport = &Analyzer{
	Name: "deadexport",
	Doc:  "flag package-level identifiers under internal/ that no non-test code references (delete, move into a _test.go, or allow naming the user)",
	Run:  runDeadexport,
}

// refIndex is the module-wide index Run builds before its per-package loop.
type refIndex struct {
	root   bool            // the load includes the module root package
	used   map[string]bool // keys some counting reference names
	public map[string]bool // keys of internal types a non-internal package names
	iface  map[string]bool // method names an interface declares or package errors asserts
}

func isInternal(pkgPath string) bool { return strings.Contains(pkgPath+"/", "/internal/") }

// objKey keys a package-level object "pkgpath.Name", a method "pkgpath.Recv.Name"
// (and recv its type), anything else "": Load imports intra-module packages
// from export data, so objects compare by key, not identity.
func objKey(obj types.Object) (key, recv string) {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		t := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv, _ = objKey(n.Obj())
			return recv + "." + fn.Name(), recv
		}
	}
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return "", ""
	}
	return obj.Pkg().Path() + "." + obj.Name(), ""
}

func indexRefs(pkgs []*Package) *refIndex {
	x := &refIndex{used: map[string]bool{}, public: map[string]bool{}, iface: map[string]bool{"Unwrap": true, "Is": true, "As": true}}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				x.iface[it.Method(i).Name()] = true
			}
		}
	}
	for _, pkg := range pkgs {
		x.root = x.root || pkg.PkgPath == pkg.ModulePath
		for _, p := range append(pkg.Types.Imports(), pkg.Types) {
			for _, name := range p.Scope().Names() {
				addIface(p.Scope().Lookup(name).Type())
			}
		}
		for _, tv := range pkg.TypesInfo.Types {
			addIface(tv.Type) // inline interface{ Permanent() bool } assertions
		}
		// scan counts decl's references but those to itself and to recv.
		scan := func(decl ast.Node, recv string) {
			ast.Inspect(decl, func(n ast.Node) bool {
				id, _ := n.(*ast.Ident)
				obj := pkg.TypesInfo.Uses[id]
				if k, _ := objKey(obj); k != "" && k != recv && (obj.Pos() < decl.Pos() || obj.Pos() >= decl.End()) {
					_, isType := obj.(*types.TypeName)
					x.used[k] = true
					x.public[k] = x.public[k] || isType && isInternal(obj.Pkg().Path()) && !isInternal(pkg.PkgPath)
				}
				return true
			})
		}
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					_, recv := objKey(pkg.TypesInfo.Defs[fd.Name])
					scan(fd, recv)
					continue
				}
				for _, spec := range d.(*ast.GenDecl).Specs {
					if vs, ok := spec.(*ast.ValueSpec); !ok || vs.Names[0].Name != "_" {
						scan(spec, "") // a blank var _ I = (*T)(nil) counts for nothing
					}
				}
			}
		}
	}
	return x
}

func runDeadexport(pass *Pass) error {
	if x := pass.refs; x.root && isInternal(pass.Pkg.PkgPath) {
		for id, obj := range pass.TypesInfo.Defs {
			k, recv := objKey(obj)
			if k != "" && !x.used[k] && (recv == "" || !x.iface[id.Name] && !(id.IsExported() && x.public[recv])) {
				pass.Reportf(id.Pos(), "%s has no reference from non-test code", strings.TrimPrefix(k, path.Dir(pass.Pkg.PkgPath)+"/"))
			}
		}
	}
	return nil
}
