// Command nglint runs the determinism & protocol-safety analyzer suite
// (internal/lint) over the whole module: the per-package analyzers
// (walltime, locksafe), the whole-module analyzers (detflow
// interprocedural nondeterminism taint and global math/rand draws, errflow
// consensus error-drop tracking), plus verification of every
// //nglint:allow annotation.
//
// Usage:
//
//	nglint [-list] [-cache file] [./...]
//
// nglint always analyzes every package in the enclosing module (the only
// accepted pattern is ./..., for make/CI symmetry with go vet). It prints
// findings as file:line:col: analyzer: message and exits 1 if there are
// any. Test files are exempt by design — the contract governs production
// code.
//
// -cache names a file holding the content hash of the last clean run. When
// the hash of every .go file and go.mod still matches, nglint exits 0
// without re-analyzing; after a clean run it records the new hash. CI keys
// this file on a cache action so unchanged modules skip the type-check
// entirely. (Serializing the type-checked packages themselves is not viable
// stdlib-only: go/types has no exporter/importer pair for full typed ASTs,
// so the cache is all-or-nothing on source identity.)
//
// The suite is self-contained (stdlib go/ast + go/types; see
// internal/lint/analysis for why x/tools is not imported) and is wired into
// `make lint` and the CI lint job next to go vet, staticcheck, and
// govulncheck.
package main

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bitcoinng/internal/lint/nglint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	cache := flag.String("cache", "", "clean-run hash file: skip analysis when sources are unchanged")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nglint [-list] [-cache file] [./...]\n\nAnalyzers:\n%s", nglint.Doc())
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

	var srcHash string
	if *cache != "" {
		srcHash, err = hashSources(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nglint: hashing sources: %v\n", err)
			os.Exit(2)
		}
		if prev, err := os.ReadFile(*cache); err == nil && strings.TrimSpace(string(prev)) == srcHash {
			fmt.Fprintf(os.Stderr, "nglint: sources unchanged since last clean run (%s), skipping\n", srcHash[:12])
			return
		}
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
	if *cache != "" {
		if err := os.WriteFile(*cache, []byte(srcHash+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "nglint: writing cache: %v\n", err)
			// The run itself was clean; a cache write failure costs only
			// the next run's skip, not correctness.
		}
	}
}

// hashSources digests every production .go file and go.mod under root in a
// stable order. Test files are excluded — the suite never loads them, so
// they cannot change findings.
func hashSources(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, err := filepath.Rel(root, f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", rel)
		r, err := os.Open(f)
		if err != nil {
			return "", err
		}
		if _, err := io.Copy(h, r); err != nil {
			r.Close()
			return "", err
		}
		r.Close()
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
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
