package detflow_test

import (
	"testing"

	"bitcoinng/internal/lint/dataflow"
	"bitcoinng/internal/lint/detflow"
	"bitcoinng/internal/lint/linttest"
	"bitcoinng/internal/lint/load"
)

// TestModuleSweep runs the full interprocedural analysis over the real
// module: it must terminate and every diagnostic it produces must carry a
// valid position. The findings themselves are asserted by `make lint`
// (exit-0 after triage); here we log them so an engine regression that
// floods the module with findings is visible in test output.
func TestModuleSweep(t *testing.T) {
	root := linttest.ModuleRoot(t)
	l := load.New("bitcoinng", root)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	prog := dataflow.NewProgram(l.Fset(), pkgs)
	diags := detflow.Run(prog, detflow.InZone)
	for _, d := range diags {
		if !d.Pos.IsValid() {
			t.Errorf("diagnostic without position: %s", d.Message)
		}
		t.Logf("%s: %s", l.Fset().Position(d.Pos), d.Message)
	}
	if len(diags) > 60 {
		t.Errorf("detflow produced %d findings on the module — smells like an engine false-positive flood", len(diags))
	}
}
