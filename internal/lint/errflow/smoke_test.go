package errflow_test

import (
	"testing"

	"bitcoinng/internal/lint/dataflow"
	"bitcoinng/internal/lint/errflow"
	"bitcoinng/internal/lint/linttest"
	"bitcoinng/internal/lint/load"
)

// TestModuleSweep runs errflow over the real module: every finding must
// carry a valid position, and the count is bounded to catch a propagation
// bug that taints everything.
func TestModuleSweep(t *testing.T) {
	root := linttest.ModuleRoot(t)
	l := load.New("bitcoinng", root)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	prog := dataflow.NewProgram(l.Fset(), pkgs)
	diags := errflow.Run(prog, errflow.ConsensusRoots, errflow.InZone)
	for _, d := range diags {
		if !d.Pos.IsValid() {
			t.Errorf("diagnostic without position: %s", d.Message)
		}
		t.Logf("%s: %s", l.Fset().Position(d.Pos), d.Message)
	}
	if len(diags) > 40 {
		t.Errorf("errflow produced %d findings — smells like a propagation false-positive flood", len(diags))
	}
}
