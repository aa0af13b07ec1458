package detflow_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bitcoinng/internal/lint/dataflow"
	"bitcoinng/internal/lint/detflow"
	"bitcoinng/internal/lint/linttest"
	"bitcoinng/internal/lint/load"
)

// TestFixtures drives the engine over the golden fixture: direct flows,
// two-hop laundering, sanitizers, order-independent transforms, and the
// exported-escape rule.
func TestFixtures(t *testing.T) {
	linttest.RunModule(t, detflow.Analyzer, "bitcoinng/internal/sim/dfx")
}

// TestInZone pins the deterministic zone that detflow and walltime share.
// Exclusions match whole path segments.
func TestInZone(t *testing.T) {
	for _, tc := range []struct {
		pkg  string
		want bool
	}{
		{"bitcoinng", true}, // the cluster harness runs simulated fleets too
		{"bitcoinng/internal/sim", true},
		{"bitcoinng/internal/simnet", true},
		{"bitcoinng/internal/simnetx", true},
		{"bitcoinng/internal/chain", true},
		{"bitcoinng/internal/experiment", true},
		{"bitcoinng/internal/harness", true},
		{"bitcoinng/internal/load", true},
		{"bitcoinng/internal/wire", true},
		{"bitcoinng/internal/chaos", true},
		{"bitcoinng/internal/p2px", true},
		{"bitcoinng/internal/p2p", false}, // live harness: wall clock is its job
		{"bitcoinng/internal/lint/walltime", false},
		{"bitcoinng/cmd/ngbench", false}, // CLI timing is operator-facing
		{"bitcoinng/examples/livenet", false},
		{"bitcoinngx/internal/sim", false},
	} {
		if got := detflow.InZone(tc.pkg); got != tc.want {
			t.Errorf("InZone(%q) = %v, want %v", tc.pkg, got, tc.want)
		}
	}
}

// TestRevertedPoisonSortCaught is the regression acceptance test for the
// PR-6 applyPoison map-order bug: a copy of the real utxo package with the
// fixing sort.Slice removed must re-trigger an interprocedural finding —
// the unsorted delta op log escapes through utxo.(Set).ApplyBlock's result,
// three calls above the range that introduced the order dependence.
func TestRevertedPoisonSortCaught(t *testing.T) {
	root := linttest.ModuleRoot(t)
	src := filepath.Join(root, "internal", "utxo")
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	sortRe := regexp.MustCompile(`(?m)^\s*sort\.Slice\(revoke.*$`)
	reverted := false
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if sortRe.Match(b) {
			b = sortRe.ReplaceAll(b, nil)
			reverted = true
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !reverted {
		t.Fatal("did not find the applyPoison sort.Slice(revoke...) to revert — the fixture regression has moved")
	}

	// A non-module import path tolerates the soft type errors the surgery
	// leaves behind (an unused sort import at worst).
	l := load.New("bitcoinng", root)
	pkg, err := l.LoadDir("utxo_reverted", dst)
	if err != nil {
		t.Fatalf("loading reverted copy: %v", err)
	}
	prog := dataflow.NewProgram(l.Fset(), []*load.Package{pkg})
	diags := detflow.Run(prog, func(path string) bool { return path == "utxo_reverted" })

	found := false
	for _, d := range diags {
		t.Logf("%s: %s", l.Fset().Position(d.Pos), d.Message)
		if strings.Contains(d.Message, "map-iteration-order") && strings.Contains(d.Message, "ApplyBlock") {
			found = true
		}
	}
	if !found {
		t.Errorf("reverting the applyPoison sort produced no map-order escape through ApplyBlock; detflow would miss the original bug")
	}

	// Control: the engine on the intact package stays quiet — the sort is
	// what makes the difference, not fixture noise.
	clean := load.New("bitcoinng", root)
	cpkg, err := clean.LoadDir("utxo_intact", src)
	if err != nil {
		t.Fatal(err)
	}
	cprog := dataflow.NewProgram(clean.Fset(), []*load.Package{cpkg})
	for _, d := range detflow.Run(cprog, func(path string) bool { return path == "utxo_intact" }) {
		t.Errorf("intact utxo copy produced finding: %s: %s", clean.Fset().Position(d.Pos), d.Message)
	}
}
