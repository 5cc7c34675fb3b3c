// Command pqs-lint is the determinism-invariant multichecker: it runs the
// internal/lint analyzer suite (wallclock, rawgo, globalrand, lockspan,
// epsblind, deadexport, plus the vet-lite passes) over the given packages
// — deadexport only when they include the module root — and exits
// non-zero on any finding. CI runs it as `make lint`; a finding that is
// genuinely intended is silenced in place with
//
//	//pqslint:allow <analyzer> <reason>
//
// (reason mandatory — see internal/lint's package doc for the invariants
// and why each one is load-bearing for replayable ε measurements).
//
// Usage:
//
//	pqs-lint [-only a,b] [-list] [packages...]
//
// Packages default to ./... resolved in the current directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pqs/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pqs-lint [-only a,b] [-list] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "pqs-lint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pqs-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pqs-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pqs-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
