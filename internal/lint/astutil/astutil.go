// Package astutil holds the small AST/type helpers shared by the nglint
// analyzers.
package astutil

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PkgFuncCall reports whether call invokes a package-level function through
// a package selector (e.g. time.Now(), rand.Intn(n)), returning the
// package's import path and the function name.
func PkgFuncCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := info.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// MethodCall reports whether call invokes a method via a selector,
// returning the receiver expression, its static type, and the method name.
func MethodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, recvType types.Type, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return nil, nil, "", false
	}
	s, okS := info.Selections[sel]
	if !okS || s.Kind() != types.MethodVal {
		return nil, nil, "", false
	}
	return sel.X, s.Recv(), sel.Sel.Name, true
}

// Named returns the named type underlying t, unwrapping one level of
// pointer and any aliases, or nil.
func Named(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// NamedIs reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func NamedIs(t types.Type, pkgPath, name string) bool {
	n := Named(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// Unwrap strips parens and value conversions (T(x), including unary &/*)
// down to the underlying operand expression.
func Unwrap(info *types.Info, e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.CallExpr:
			// A conversion like uint64(x) has exactly one argument
			// and a type as its callee.
			if len(v.Args) == 1 {
				if tv, ok := info.Types[v.Fun]; ok && tv.IsType() {
					e = v.Args[0]
					continue
				}
			}
			return e
		default:
			return e
		}
	}
}

// RootIdent returns the leftmost identifier of a selector chain
// (a.b.c → a), or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// Obj returns the object an identifier resolves to, checking uses then
// definitions.
func Obj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// writerIface is io.Writer built structurally, so packages that never
// import io still check.
var writerIface = func() *types.Interface {
	byteSlice := types.NewSlice(types.Typ[types.Byte])
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", byteSlice)), results, false)
	m := types.NewFunc(token.NoPos, nil, "Write", sig)
	return types.NewInterfaceType([]*types.Func{m}, nil).Complete()
}()

// streamMethods emit into an ordered stream when the receiver implements
// io.Writer (bytes.Buffer, strings.Builder, bufio.Writer, hash.Hash,
// wire.Writer, ...).
var streamMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// StreamWrite reports whether calling method name on a receiver of type recv
// writes an ordered stream: a Write-family method of an io.Writer (or of a
// type whose pointer is one).
func StreamWrite(name string, recv types.Type) bool {
	if !streamMethods[name] || recv == nil {
		return false
	}
	if types.Implements(recv, writerIface) {
		return true
	}
	if _, ok := recv.Underlying().(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(recv), writerIface)
	}
	return false
}

// sortFuncs are the blessed reordering calls.
var sortFuncs = map[string]map[string]bool{
	"sort": {"Strings": true, "Ints": true, "Float64s": true, "Slice": true,
		"SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// SortCall reports whether call is a sort.* or slices.Sort* call, which
// puts its first argument in an order of its own.
func SortCall(info *types.Info, call *ast.CallExpr) bool {
	pkg, name, ok := PkgFuncCall(info, call)
	return ok && sortFuncs[pkg][name]
}
