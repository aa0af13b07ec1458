// Package dataflow is the summary-based interprocedural analysis engine
// under the module-wide nglint analyzers (detflow, errflow). It
// generalizes the shape locksafe pioneered — per-function facts propagated
// to a fixpoint — across packages: a Program indexes every function
// declaration in a load, resolves static call edges, and the taint engine
// (taint.go) computes per-function summaries (result taints, pointer-param
// mutations, param→result/param→param transfer, sink reachability with call
// paths) bottom-up with fixpoint iteration for recursion.
//
// Functions are keyed by FuncID strings ("pkgpath.Name" /
// "pkgpath.(Recv).Name") rather than types.Object identity: the loader
// deliberately keeps the first types.Package for importers while a full
// analysis load builds a fresh one, so the same declaration is represented
// by two distinct objects depending on which side of a package boundary it
// is observed from. String identity survives that split.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"bitcoinng/internal/lint/astutil"
	"bitcoinng/internal/lint/load"
)

// FuncID names a function declaration module-wide: "pkgpath.Name" for
// package functions, "pkgpath.(Recv).Name" for methods.
type FuncID string

// Func is one function declaration with its analysis context.
type Func struct {
	ID   FuncID
	Pkg  *load.Package
	Decl *ast.FuncDecl
	Sig  *types.Signature
	// Params lists the receiver (if any) followed by the declared
	// parameters, in the package's own type universe. Summary param
	// indices refer into this slice.
	Params []*types.Var
	// Results lists the declared result variables (named or not).
	Results []*types.Var
}

// Program is a module-wide function index over one load.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*load.Package
	Funcs map[FuncID]*Func
	// Order holds every Func sorted by package path then declaration
	// position: fixpoint iteration and report emission walk this slice so
	// results are deterministic (the suite holds itself to detflow's
	// map-order rule).
	Order []*Func
}

// NewProgram indexes every function declaration in pkgs.
func NewProgram(fset *token.FileSet, pkgs []*load.Package) *Program {
	p := &Program{Fset: fset, Pkgs: pkgs, Funcs: map[FuncID]*Func{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sig := obj.Type().(*types.Signature)
				f := &Func{
					ID:   IDOf(obj),
					Pkg:  pkg,
					Decl: fd,
					Sig:  sig,
				}
				if r := sig.Recv(); r != nil {
					f.Params = append(f.Params, r)
				}
				for i := 0; i < sig.Params().Len(); i++ {
					f.Params = append(f.Params, sig.Params().At(i))
				}
				for i := 0; i < sig.Results().Len(); i++ {
					f.Results = append(f.Results, sig.Results().At(i))
				}
				p.Funcs[f.ID] = f
				p.Order = append(p.Order, f)
			}
		}
	}
	// pkgs arrive sorted by path and decls in file/position order, so
	// Order is already deterministic; no extra sort needed.
	return p
}

// IDOf derives the module-wide identity of a *types.Func.
func IDOf(fn *types.Func) FuncID {
	pkg := "builtin"
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if n := astutil.Named(sig.Recv().Type()); n != nil {
			return FuncID(pkg + ".(" + n.Obj().Name() + ")." + fn.Name())
		}
		// Interface receiver or unnamed type: produce an ID that will not
		// match any declaration, so calls through it stay "unknown".
		return FuncID(pkg + ".(?)." + fn.Name())
	}
	return FuncID(pkg + "." + fn.Name())
}

// StaticCallee resolves the *types.Func a call statically invokes: a named
// function, a method on a concrete receiver, or an interface method (which
// NewProgram will not have indexed — such calls are treated as unknown).
// Returns nil for calls through function values, builtins, and conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			fn, _ := s.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Callee resolves call to an indexed module function, or nil.
func (p *Program) Callee(info *types.Info, call *ast.CallExpr) *Func {
	fn := StaticCallee(info, call)
	if fn == nil {
		return nil
	}
	return p.Funcs[IDOf(fn)]
}
