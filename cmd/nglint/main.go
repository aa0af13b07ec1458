// Command nglint runs the determinism & protocol-safety analyzer suite
// (internal/lint) over one load of the whole module: walltime (wall-clock
// reads at the call), detflow (interprocedural nondeterminism taint and
// global math/rand draws) and errflow (consensus error-drop tracking), plus
// verification of every //nglint:allow annotation.
//
// Usage:
//
//	nglint [-list] [./...]
//
// nglint always analyzes every package in the enclosing module (the only
// accepted pattern is ./..., for make/CI symmetry with go vet). It prints
// findings as file:line:col: analyzer: message and exits 1 if there are
// any. Test files are exempt by design — the contract governs production
// code.
//
// The suite is self-contained (stdlib go/ast + go/types; see
// internal/lint/analysis for why x/tools is not imported) and is wired into
// `make lint` and the CI lint job next to go vet, staticcheck, and
// govulncheck.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bitcoinng/internal/lint/nglint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nglint [-list] [./...]\n\nAnalyzers:\n%s", nglint.Doc())
	}
	flag.Parse()
	if *list {
		fmt.Print(nglint.Doc())
		return
	}
	for _, arg := range flag.Args() {
		if arg != "./..." {
			fmt.Fprintf(os.Stderr, "nglint: only the ./... pattern is supported (got %q)\n", arg)
			os.Exit(2)
		}
	}

	root, modPath, err := findModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nglint: %v\n", err)
		os.Exit(2)
	}

	findings, err := nglint.Run(modPath, root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nglint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		// Print module-relative paths: stable across machines, clickable
		// in CI logs.
		pos := f.Pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "nglint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// findModule walks up from the working directory to go.mod and reads the
// module path.
func findModule() (root, modPath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(dir, "go.mod")
		if f, err := os.Open(gm); err == nil {
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module directive in %s", gm)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("go.mod not found above %s", dir)
		}
		dir = parent
	}
}
