// Package fixture is the module root: the only non-internal package, and
// the only referrer of what it names below.
package fixture

import (
	"fixture.example/internal/a"
	"fixture.example/internal/b"
)

// Public re-exports a.Aliased, which makes its exported methods public API.
type Public = a.Aliased

// Run calls into both internal packages.
func Run() {
	b.Use()
	a.Take(nil)
}
