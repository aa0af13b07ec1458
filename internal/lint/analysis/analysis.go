// Package analysis is a self-contained, stdlib-only equivalent of the core
// of golang.org/x/tools/go/analysis, shaped so the nglint analyzers could be
// ported to the upstream framework mechanically if the dependency ever
// becomes available. The build environment for this repository is hermetic
// (no module proxy), so the framework is vendored as a few dozen lines rather
// than imported.
//
// A ModuleAnalyzer inspects every type-checked package of the module in one
// pass and reports Diagnostics through its ModulePass. Orchestration —
// package loading, suppression via //nglint:allow annotations, exit codes —
// lives in internal/lint/nglint.
package analysis

import (
	"fmt"
	"go/token"

	"bitcoinng/internal/lint/load"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// ModuleAnalyzer describes one static check over the whole module at once:
// a site rule walks each package in turn, an interprocedural dataflow rule
// needs them all together.
type ModuleAnalyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nglint:allow <name> <reason> annotations.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces
	// and why, shown by `nglint -list`.
	Doc string

	// Run applies the analyzer to the whole module.
	Run func(*ModulePass) error
}

// ModulePass carries every loaded module package to a ModuleAnalyzer.
type ModulePass struct {
	Analyzer *ModuleAnalyzer

	// Fset maps token.Pos values in every package's files to positions.
	Fset *token.FileSet

	// Pkgs holds every module package, sorted by import path. Test files
	// are never loaded: the determinism contract governs production code,
	// and tests legitimately use wall clocks and ad-hoc randomness.
	Pkgs []*load.Package

	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
