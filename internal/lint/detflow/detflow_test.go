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

// TestRevertedPoisonSortCaught is the regression acceptance test for
// map-ordered poison placement: a copy of the real core package with the
// sort.Slice that puts eligiblePoisons' culprits in hash order removed must
// re-trigger a finding. The poison transactions land in the leader's next
// microblock, so without the sort their consensus-visible order follows map
// iteration.
func TestRevertedPoisonSortCaught(t *testing.T) {
	reverted := 0
	diags := sandbox(t, "core", true, stripLine(regexp.MustCompile(`(?s)\n\s*sort\.Slice\(culprits, .*?\n\t\}\)`), &reverted), "")
	if reverted != 1 {
		t.Fatalf("found %d sort.Slice(culprits...) calls to revert, want the one in eligiblePoisons", reverted)
	}
	if !anyFinding(diags, "map-iteration-order", "eligiblePoisons") {
		t.Errorf("reverting the eligiblePoisons sort produced no map-order finding; detflow would miss the bug")
	}
	// Control: the sort is what makes the difference, not fixture noise.
	for _, d := range sandbox(t, "core", true, nil, "") {
		t.Errorf("intact core copy produced finding: %s", d)
	}
}

// TestRevertedStrategySortCaught strips the sort that makes
// strategy.ForNodes validate its assignments in node order: the ids are
// collected by ranging a map, so without sort.Ints which bad entry is
// reported (and with it a failing run's digest) follows map order.
func TestRevertedStrategySortCaught(t *testing.T) {
	reverted := 0
	diags := sandbox(t, "strategy", true, stripLine(regexp.MustCompile(`(?m)^\s*sort\.Ints\(ids\)$`), &reverted), "")
	if reverted != 1 {
		t.Fatalf("found %d sort.Ints(ids) lines to strip, want the one in ForNodes", reverted)
	}
	if !anyFinding(diags, "map-iteration-order", "ForNodes") {
		t.Error("stripping ForNodes' sort produced no map-order finding")
	}
	for _, d := range sandbox(t, "strategy", true, nil, "") {
		t.Errorf("intact strategy copy produced finding: %s", d)
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
