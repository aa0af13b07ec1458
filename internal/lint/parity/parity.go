// Package parity statically diffs surfaces that the codebase promises to
// keep in lockstep but that the compiler cannot couple (interface
// implementations it can, so those are pinned by compile-time assertions
// instead):
//
//   - catalogue parity: every exported invariant constructor must be wired
//     into the default catalogue, or a scenario harness that asks for "all
//     invariants" silently runs without it.
//
//   - hook parity: every method of the strategy interface must be invoked
//     by the mining/processing harness somewhere; an unthreaded hook means
//     adversarial strategies implement dead code and the experiment
//     silently measures honest behavior.
//
// All type matching is by package-path-qualified name strings, not
// types.Object identity: the source loader hands full loads and imports
// distinct *types.Package instances for the same path, and sandbox loads
// (non-module paths, soft type errors tolerated) never share identity with
// anything.
package parity

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"bitcoinng/internal/lint/analysis"
	"bitcoinng/internal/lint/dataflow"
	"bitcoinng/internal/lint/load"
)

// Analyzer is the nglint entry point, running the default contracts.
var Analyzer = &analysis.ModuleAnalyzer{
	Name: "parity",
	Doc:  "paired surfaces must not drift: invariant catalogue complete, strategy hooks threaded",
	Run: func(pass *analysis.ModulePass) error {
		prog := dataflow.NewProgram(pass.Fset, pass.Pkgs)
		for _, d := range Run(prog, Default()) {
			pass.Report(d)
		}
		return nil
	},
}

// CatalogueContract requires every exported constructor returning ResultType
// (declared in Pkg) to be called inside Aggregator's body.
type CatalogueContract struct {
	Pkg, ResultType string
	Aggregator      dataflow.FuncID
}

// HookContract requires every method of the named interface to have at
// least one call site somewhere in the module.
type HookContract struct {
	IfacePkg, IfaceName string
}

// Contracts is the full parity specification. Tests substitute narrower
// ones; nglint runs Default().
type Contracts struct {
	Catalogue []CatalogueContract
	Hooks     []HookContract
}

// Default returns the repository's parity contracts.
func Default() Contracts {
	return Contracts{
		Catalogue: []CatalogueContract{{
			Pkg:        "bitcoinng/internal/invariant",
			ResultType: "Invariant",
			Aggregator: "bitcoinng/internal/invariant.Defaults",
		}},
		Hooks: []HookContract{
			{IfacePkg: "bitcoinng/internal/strategy", IfaceName: "Strategy"},
		},
	}
}

// Run applies the contracts to the loaded program. Contracts whose anchor
// (interface, constant universe, aggregator) is absent from the load are
// skipped: sandbox loads analyze single packages.
func Run(prog *dataflow.Program, c Contracts) []analysis.Diagnostic {
	r := &runner{prog: prog}
	for _, cc := range c.Catalogue {
		r.catalogueContract(cc)
	}
	for _, hc := range c.Hooks {
		r.hookContract(hc)
	}
	sort.Slice(r.diags, func(i, j int) bool {
		if r.diags[i].Pos != r.diags[j].Pos {
			return r.diags[i].Pos < r.diags[j].Pos
		}
		return r.diags[i].Message < r.diags[j].Message
	})
	return r.diags
}

type runner struct {
	prog  *dataflow.Program
	diags []analysis.Diagnostic
}

func (r *runner) reportf(pos token.Pos, format string, args ...any) {
	r.diags = append(r.diags, analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

func (r *runner) pos(p token.Pos) string {
	pp := r.prog.Fset.Position(p)
	name := pp.Filename
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, pp.Line)
}

// findTypesPkg resolves a package path to type information, searching the
// loaded packages first and their transitive imports second (a sandbox load
// sees module packages only as imports).
func (r *runner) findTypesPkg(path string) *types.Package {
	for _, p := range r.prog.Pkgs {
		if p.Path == path {
			return p.Types
		}
	}
	seen := map[*types.Package]bool{}
	var find func(p *types.Package) *types.Package
	find = func(p *types.Package) *types.Package {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == path {
			return p
		}
		for _, imp := range p.Imports() {
			if got := find(imp); got != nil {
				return got
			}
		}
		return nil
	}
	for _, p := range r.prog.Pkgs {
		if got := find(p.Types); got != nil {
			return got
		}
	}
	return nil
}

// findIface resolves pkgPath.name to its interface type.
func (r *runner) findIface(pkgPath, name string) *types.Interface {
	tp := r.findTypesPkg(pkgPath)
	if tp == nil {
		return nil
	}
	tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// ifaceMethods returns the interface's method names with positions, sorted.
func ifaceMethods(iface *types.Interface) []*types.Func {
	var out []*types.Func
	for i := 0; i < iface.NumMethods(); i++ {
		out = append(out, iface.Method(i))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// --- catalogue parity ---------------------------------------------------

func (r *runner) posOfFunc(id dataflow.FuncID) string {
	if f, ok := r.prog.Funcs[id]; ok {
		return r.pos(f.Decl.Pos())
	}
	return "?"
}

func (r *runner) catalogueContract(c CatalogueContract) {
	var pkg *load.Package
	for _, p := range r.prog.Pkgs {
		if p.Path == c.Pkg {
			pkg = p
		}
	}
	agg, ok := r.prog.Funcs[c.Aggregator]
	if pkg == nil || !ok || agg.Decl.Body == nil {
		return
	}
	resultType := c.Pkg + "." + c.ResultType
	called := map[string]bool{}
	ast.Inspect(agg.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := agg.Pkg.Info.Uses[id].(*types.Func); ok {
			called[fn.Name()] = true
		}
		return true
	})
	scope := pkg.Types.Scope()
	for _, nm := range scope.Names() {
		fn, ok := scope.Lookup(nm).(*types.Func)
		if !ok || !fn.Exported() {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Results().Len() != 1 {
			continue
		}
		if types.TypeString(sig.Results().At(0).Type(), nil) != resultType {
			continue
		}
		if !called[nm] {
			r.reportf(fn.Pos(), "invariant constructor %s is not part of %s (%s) — harnesses running the default catalogue never check it",
				nm, c.Aggregator, r.posOfFunc(c.Aggregator))
		}
	}
}

// --- hook parity --------------------------------------------------------

func (r *runner) hookContract(c HookContract) {
	iface := r.findIface(c.IfacePkg, c.IfaceName)
	if iface == nil {
		return
	}
	want := c.IfacePkg + "." + c.IfaceName
	called := map[string]bool{}
	for _, f := range r.prog.Order {
		if f.Decl.Body == nil {
			continue
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := f.Pkg.Info.Selections[sel]
			if s == nil || s.Kind() != types.MethodVal {
				return true
			}
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if types.TypeString(recv, nil) == want {
				called[sel.Sel.Name] = true
			}
			return true
		})
	}
	short := c.IfacePkg[strings.LastIndex(c.IfacePkg, "/")+1:] + "." + c.IfaceName
	for _, m := range ifaceMethods(iface) {
		if !called[m.Name()] {
			r.reportf(m.Pos(), "hook %s.%s is declared but no harness ever invokes it — implementations are dead code and experiments silently measure default behavior",
				short, m.Name())
		}
	}
}
