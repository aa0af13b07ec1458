package detflow_test

import (
	"fmt"
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

// TestFixtures drives the analyzer over the golden fixtures: direct flows,
// two-hop laundering, sanitizers, order-independent transforms, map order
// at stream writes and channel sends, the escape rule, and global math/rand
// draws — in a zone package and, for the rules that hold everywhere, in a
// package outside the zone.
func TestFixtures(t *testing.T) {
	linttest.RunModule(t, detflow.Analyzer, "bitcoinng/internal/sim/dfx", "bitcoinng/internal/p2p/dfxlive")
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

// sandbox copies the production files of internal/<pkg> into a temporary
// directory, passing each through edit, optionally adds a file holding
// extra, loads the copy under the non-module path pkg+"_sandbox" (which
// tolerates the soft type errors surgery leaves behind, an unused import at
// worst) and runs detflow on it, with the copy in the deterministic zone
// when inZone is set. It logs and returns the findings.
func sandbox(t *testing.T, pkg string, inZone bool, edit func([]byte) []byte, extra string) []string {
	t.Helper()
	root := linttest.ModuleRoot(t)
	src := filepath.Join(root, "internal", pkg)
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			b = edit(b)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if extra != "" {
		if err := os.WriteFile(filepath.Join(dst, "planted.go"), []byte("package "+pkg+"\n\n"+extra), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := pkg + "_sandbox"
	l := load.New("bitcoinng", root)
	lp, err := l.LoadDir(path, dst)
	if err != nil {
		t.Fatalf("loading sandbox copy of %s: %v", pkg, err)
	}
	prog := dataflow.NewProgram(l.Fset(), []*load.Package{lp})
	var out []string
	for _, d := range detflow.Run(prog, func(p string) bool { return inZone && p == path }) {
		msg := fmt.Sprintf("%s: %s", l.Fset().Position(d.Pos), d.Message)
		t.Log(msg)
		out = append(out, msg)
	}
	return out
}

// stripLine returns an edit that deletes the lines re matches, counting
// them into *n.
func stripLine(re *regexp.Regexp, n *int) func([]byte) []byte {
	return func(b []byte) []byte {
		*n += len(re.FindAll(b, -1))
		return re.ReplaceAll(b, nil)
	}
}

// TestRevertedPoisonSortCaught is the regression acceptance test for the
// applyPoison map-order bug: a copy of the real utxo package with the
// fixing sort.Slice removed must re-trigger an interprocedural finding —
// the unsorted delta op log escapes through utxo.(Set).ApplyBlock's result,
// three calls above the range that introduced the order dependence.
func TestRevertedPoisonSortCaught(t *testing.T) {
	reverted := 0
	diags := sandbox(t, "utxo", true, stripLine(regexp.MustCompile(`(?m)^\s*sort\.Slice\(revoke.*$`), &reverted), "")
	if reverted == 0 {
		t.Fatal("did not find the applyPoison sort.Slice(revoke...) to revert — the fixture regression has moved")
	}
	if !anyFinding(diags, "map-iteration-order", "ApplyBlock") {
		t.Errorf("reverting the applyPoison sort produced no map-order escape through ApplyBlock; detflow would miss the original bug")
	}
	// Control: the sort is what makes the difference, not fixture noise.
	for _, d := range sandbox(t, "utxo", true, nil, "") {
		t.Errorf("intact utxo copy produced finding: %s", d)
	}
}

// TestRevertedPruneSortCaught strips the sort that makes Figure 5's
// time-to-prune percentile independent of map order: the samples are
// collected by ranging a map, so without sort.Float64s the percentile
// reads a different element every run.
func TestRevertedPruneSortCaught(t *testing.T) {
	reverted := 0
	diags := sandbox(t, "metrics", true, stripLine(regexp.MustCompile(`(?m)^\s*sort\.Float64s\(samples\)$`), &reverted), "")
	if reverted != 1 {
		t.Fatalf("found %d sort.Float64s(samples) lines to strip, want the one in timeToPrune", reverted)
	}
	if !anyFinding(diags, "map-iteration-order", "timeToPrune") {
		t.Error("stripping timeToPrune's sort produced no map-order finding")
	}
	for _, d := range sandbox(t, "metrics", true, nil, "") {
		t.Errorf("intact metrics copy produced finding: %s", d)
	}
}

// TestPlantedRandCaught plants a global math/rand draw and a stdlib source
// built in place into a package inside the deterministic zone and into
// one outside it: both are findings wherever they are.
func TestPlantedRandCaught(t *testing.T) {
	for _, tc := range []struct {
		pkg    string
		inZone bool
	}{{"mining", true}, {"p2p", false}} {
		for _, plant := range []struct{ code, want string }{
			{"func plantedDraw() int { return rand.Intn(6) }\n", "math/rand.Intn draws from the process-global source"},
			{"func plantedSource() *rand.Rand { return rand.New(rand.NewSource(1)) }\n", "math/rand.NewSource builds a random source in place"},
		} {
			diags := sandbox(t, tc.pkg, tc.inZone, nil, "import \"math/rand\"\n\n"+plant.code)
			if len(diags) != 1 || !anyFinding(diags, "planted.go", plant.want) {
				t.Errorf("%s (in zone: %v): planting %q gave %d findings, want one matching %q", tc.pkg, tc.inZone, plant.code, len(diags), plant.want)
			}
		}
		for _, d := range sandbox(t, tc.pkg, tc.inZone, nil, "") {
			t.Errorf("intact %s copy produced finding: %s", tc.pkg, d)
		}
	}
}

// anyFinding reports whether some finding contains every one of parts.
func anyFinding(diags []string, parts ...string) bool {
	for _, d := range diags {
		all := true
		for _, p := range parts {
			all = all && strings.Contains(d, p)
		}
		if all {
			return true
		}
	}
	return false
}
