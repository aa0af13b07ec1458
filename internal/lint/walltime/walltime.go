// Package walltime forbids reading the wall clock in simulation code.
//
// Every result this reproduction reports — byte-identical reports at any
// parallelism, shared validation verdicts, seed-replayable chaos digests —
// depends on simulated time being the only time that exists inside the
// engines. One time.Now() on a hot path silently turns a deterministic run
// into a wall-clock-dependent one, and no fixed test seed is guaranteed to
// notice. The analyzer makes the rule structural: calls that read or wait on
// the wall clock are diagnostics everywhere in production code, and the few
// intentional sites (the live p2p harness's Runtime.Now, operator-facing
// stderr timing) must carry a justified //nglint:allow walltime annotation.
package walltime

import (
	"go/ast"

	"bitcoinng/internal/lint/analysis"
	"bitcoinng/internal/lint/astutil"
	"bitcoinng/internal/lint/detflow"
)

// banned is the set of time package functions that read or wait on the wall
// clock. Pure arithmetic on time.Duration/time.Time values is fine; only
// entry points that sample the clock (or schedule against it) are listed.
var banned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTicker": true,
	"NewTimer":  true,
}

// Analyzer is the walltime check.
var Analyzer = &analysis.ModuleAnalyzer{
	Name: "walltime",
	Doc: "forbids wall-clock reads (time.Now/Since/Until/Sleep/Tick/After/" +
		"AfterFunc/NewTicker/NewTimer) in production code; simulated time " +
		"from sim.Loop.Now is the only clock deterministic packages may " +
		"observe, and intentional live-harness sites need //nglint:allow " +
		"walltime <reason>",
	Run: run,
}

func run(pass *analysis.ModulePass) error {
	for _, pkg := range pass.Pkgs {
		// Inside detflow's deterministic zone a wall-clock read is a
		// determinism hazard; elsewhere (live harness, CLIs, examples) it is
		// still flagged, as a site that must carry a justification, because
		// the whole repository shares one annotation discipline.
		det := detflow.InZone(pkg.Path)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, name, ok := astutil.PkgFuncCall(pkg.Info, call)
				if !ok || fn != "time" || !banned[name] {
					return true
				}
				if det {
					pass.Reportf(call.Pos(),
						"time.%s in deterministic package %s: simulation results must be a pure function of (config, seed); use the event loop's clock",
						name, pkg.Path)
				} else {
					pass.Reportf(call.Pos(),
						"time.%s reads the wall clock: annotate intentional live-harness sites with //nglint:allow walltime <reason>",
						name)
				}
				return true
			})
		}
	}
	return nil
}
