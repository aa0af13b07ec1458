package parity_test

import (
	"testing"

	"bitcoinng/internal/lint/dataflow"
	"bitcoinng/internal/lint/linttest"
	"bitcoinng/internal/lint/load"
	"bitcoinng/internal/lint/parity"
)

// TestModuleSweepParity runs the default contracts over the whole module,
// which must satisfy every one of them: any finding fails.
func TestModuleSweepParity(t *testing.T) {
	root := linttest.ModuleRoot(t)
	l := load.New("bitcoinng", root)
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*load.Package
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	prog := dataflow.NewProgram(l.Fset(), pkgs)
	for _, d := range parity.Run(prog, parity.Default()) {
		t.Errorf("%s: %s", l.Fset().Position(d.Pos), d.Message)
	}
}
