// Package a holds one declaration per deadexport case.
package a

// OnlyTests is called by a_test.go alone.
func OnlyTests() {} // want "a.OnlyTests has no reference from non-test code"

// Used is called by package b.
func Used() {}

// Doer is the interface Take accepts.
type Doer interface{ Do() }

// Take is called by the module root; the allow above it is stale.
//
//pqslint:allow deadexport nothing to silence: the module root calls Take
func Take(Doer) {}

// orphan is referenced only by itself, its own methods and a blank
// assertion; Do, which Doer names, is not flagged with it.
type orphan struct{ next *orphan } // want "a.orphan has no reference"

func (o *orphan) Do() { _ = o.next }

var _ Doer = (*orphan)(nil)

// Aliased is re-exported by the module root as fixture.Public.
type Aliased struct{}

// Exported is public API through the alias.
func (Aliased) Exported() {}

func (Aliased) hidden() {} // want "a.Aliased.hidden has no reference"

// Seam drives a_test.go.
//
//pqslint:allow deadexport seam: a_test.go drives it
func Seam() {}
