// Package b is the other package that keeps a.Used alive.
package b

import "fixture.example/internal/a"

// Use is called by the module root.
func Use() { a.Used() }
