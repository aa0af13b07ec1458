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
	"strings"

	"bitcoinng/internal/lint/analysis"
	"bitcoinng/internal/lint/astutil"
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

// DeterministicPrefixes lists the package subtrees whose results must be a
// pure function of (config, seed). Wall-clock reads here are flagged as
// determinism hazards; elsewhere (live harness, CLIs, examples) they are
// still flagged, but as sites requiring an explicit justification, because
// the whole repository shares one annotation discipline.
var DeterministicPrefixes = []string{
	"bitcoinng/internal/sim",
	"bitcoinng/internal/simnet",
	"bitcoinng/internal/chain",
	"bitcoinng/internal/node",
	"bitcoinng/internal/mining",
	"bitcoinng/internal/mempool",
	"bitcoinng/internal/load",
	"bitcoinng/internal/experiment",
	// The harness kernel assembles and restarts every simulated node; its
	// transport-agnostic Boot also starts live ngnode, but reads no clock.
	"bitcoinng/internal/harness",
	"bitcoinng/internal/chaos",
	"bitcoinng/internal/invariant",
	"bitcoinng/internal/strategy",
	"bitcoinng/internal/utxo",
	"bitcoinng/internal/types",
	"bitcoinng/internal/wire",
	// Storage sits under the simulated nodes: a wall-clock read here (e.g.
	// stamping arrival times at Append instead of persisting the caller's)
	// would leak real time into replayed consensus state.
	"bitcoinng/internal/store",
	"bitcoinng/internal/blockstore",
}

// Deterministic reports whether pkgPath falls in the deterministic zone.
func Deterministic(pkgPath string) bool {
	for _, p := range DeterministicPrefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Analyzer is the walltime check.
var Analyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbids wall-clock reads (time.Now/Since/Until/Sleep/Tick/After/" +
		"AfterFunc/NewTicker/NewTimer) in production code; simulated time " +
		"from sim.Loop.Now is the only clock deterministic packages may " +
		"observe, and intentional live-harness sites need //nglint:allow " +
		"walltime <reason>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	det := Deterministic(pass.PkgPath)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name, ok := astutil.PkgFuncCall(pass.Info, call)
			if !ok || pkg != "time" || !banned[name] {
				return true
			}
			if det {
				pass.Reportf(call.Pos(),
					"time.%s in deterministic package %s: simulation results must be a pure function of (config, seed); use the event loop's clock",
					name, pass.PkgPath)
			} else {
				pass.Reportf(call.Pos(),
					"time.%s reads the wall clock: annotate intentional live-harness sites with //nglint:allow walltime <reason>",
					name)
			}
			return true
		})
	}
	return nil
}
