// Package analysis is a self-contained, stdlib-only equivalent of the core
// of golang.org/x/tools/go/analysis, shaped so the nglint analyzers could be
// ported to the upstream framework mechanically if the dependency ever
// becomes available. The build environment for this repository is hermetic
// (no module proxy), so the framework is vendored as ~100 lines rather than
// imported.
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics through its Pass. Orchestration — package loading, suppression
// via //nglint:allow annotations, exit codes — lives in internal/lint/nglint.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"bitcoinng/internal/lint/load"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nglint:allow <name> <reason> annotations.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces
	// and why, shown by `nglint -list`.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an Analyzer.
type Pass struct {
	Analyzer *Analyzer

	// Fset maps token.Pos values in Files to positions. It is shared by
	// every package in a load, so cross-package positions resolve too.
	Fset *token.FileSet

	// Files holds the package's parsed non-test source files. Test files
	// are never loaded: the determinism contract governs production code,
	// and tests legitimately use wall clocks and ad-hoc randomness.
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// PkgPath is the import path ("bitcoinng/internal/sim").
	PkgPath string

	// Info holds the type-checker's results for Files.
	Info *types.Info

	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// ModuleAnalyzer describes a static check that needs the whole module at
// once — interprocedural dataflow — rather than one package at a time. Module analyzers run after the per-package
// suite over the same load, so type information and positions are shared.
type ModuleAnalyzer struct {
	// Name identifies the analyzer in diagnostics and //nglint:allow
	// annotations, exactly like Analyzer.Name.
	Name string

	// Doc is shown by `nglint -list`.
	Doc string

	// Run applies the analyzer to the whole module.
	Run func(*ModulePass) error
}

// ModulePass carries every loaded module package to a ModuleAnalyzer.
type ModulePass struct {
	Analyzer *ModuleAnalyzer

	// Fset is the load's shared file set.
	Fset *token.FileSet

	// Pkgs holds every module package, sorted by import path.
	Pkgs []*load.Package

	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
