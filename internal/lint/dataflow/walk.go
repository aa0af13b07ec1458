package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"bitcoinng/internal/lint/astutil"
)

// This file is the intraprocedural half of the engine: an abstract
// interpreter over one function body. Statements are walked in source
// order; every contained expression is evaluated, so taint introduced by
// sources, returned by callee summaries, or seeded on map-range variables
// chains through locals into returns, parameter mutations, and sinks.
// Everything is monotone: values and summaries only grow, and the
// sanitizer filter is applied at insertion time from a pre-scanned kill
// set, so the local and global fixpoints both terminate.

// walkStmt processes one statement, returning whether any state grew.
func (st *fnState) walkStmt(s ast.Stmt) bool {
	grew := false
	g := func(b bool) {
		if b {
			grew = true
		}
	}
	switch v := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, s2 := range v.List {
			g(st.walkStmt(s2))
		}
	case *ast.ExprStmt:
		_, b := st.evalGrow(v.X)
		g(b)
	case *ast.AssignStmt:
		g(st.assign(v))
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					vals, b := st.evalMultiGrow(vs.Values[0], len(vs.Names))
					g(b)
					for i, name := range vs.Names {
						g(st.mergeObj(astutil.Obj(st.f.Pkg.Info, name), "", vals[i], name.Pos(), false))
					}
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						val, b := st.evalGrow(vs.Values[i])
						g(b)
						g(st.mergeObj(astutil.Obj(st.f.Pkg.Info, name), "", val, name.Pos(), false))
					}
				}
			}
		}
	case *ast.ReturnStmt:
		g(st.ret(v))
	case *ast.IfStmt:
		g(st.walkStmt(v.Init))
		_, b := st.evalGrow(v.Cond)
		g(b)
		g(st.walkStmt(v.Body))
		g(st.walkStmt(v.Else))
	case *ast.ForStmt:
		g(st.walkStmt(v.Init))
		if v.Cond != nil {
			_, b := st.evalGrow(v.Cond)
			g(b)
		}
		g(st.walkStmt(v.Post))
		g(st.walkStmt(v.Body))
	case *ast.RangeStmt:
		g(st.rangeStmt(v))
	case *ast.SwitchStmt:
		g(st.walkStmt(v.Init))
		if v.Tag != nil {
			_, b := st.evalGrow(v.Tag)
			g(b)
		}
		g(st.walkStmt(v.Body))
	case *ast.TypeSwitchStmt:
		g(st.walkStmt(v.Init))
		g(st.typeSwitch(v))
	case *ast.SelectStmt:
		g(st.walkStmt(v.Body))
	case *ast.CaseClause:
		for _, e := range v.List {
			_, b := st.evalGrow(e)
			g(b)
		}
		for _, s2 := range v.Body {
			g(st.walkStmt(s2))
		}
	case *ast.CommClause:
		g(st.walkStmt(v.Comm))
		for _, s2 := range v.Body {
			g(st.walkStmt(s2))
		}
	case *ast.SendStmt:
		_, b1 := st.evalGrow(v.Chan)
		val, b2 := st.evalGrow(v.Value)
		g(b1)
		g(b2)
		// The receiver observes values in the order they were sent, so a
		// send is a sink for map order (and only for map order: a channel
		// carries a wall-clock value no differently than a return does).
		if kinds := st.sinkKinds & KindMapOrder; kinds != 0 {
			g(st.hitSink(val.flatten(), "channel send", v.Pos(), kinds, nil))
		}
	case *ast.IncDecStmt:
		_, b := st.evalGrow(v.X)
		g(b)
	case *ast.GoStmt:
		_, b := st.evalGrow(v.Call)
		g(b)
	case *ast.DeferStmt:
		_, b := st.evalGrow(v.Call)
		g(b)
	case *ast.LabeledStmt:
		g(st.walkStmt(v.Stmt))
	}
	return grew
}

// assign handles = / := / op= and tuple forms.
func (st *fnState) assign(a *ast.AssignStmt) bool {
	grew := false
	g := func(b bool) {
		if b {
			grew = true
		}
	}
	info := st.f.Pkg.Info

	// Compound assignment: x op= y. Commutative numeric/bitwise folds over
	// a map range are order-independent (sums, counters, masks), so
	// MapOrder taint is dropped from the folded-in value; string
	// concatenation is order-dependent and keeps it.
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		rhs, b := st.evalGrow(a.Rhs[0])
		g(b)
		if st.commutativeFold(a) {
			rhs = stripMapOrder(rhs)
		}
		g(st.mergeLHS(a.Lhs[0], rhs, a.Pos()))
		return grew
	}

	// Tuple assignment from one multi-value expression.
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		vals, b := st.evalMultiGrow(a.Rhs[0], len(a.Lhs))
		g(b)
		for i, lhs := range a.Lhs {
			g(st.mergeLHS(lhs, vals[i], a.Pos()))
		}
		return grew
	}

	for i, lhs := range a.Lhs {
		if i >= len(a.Rhs) {
			break
		}
		rhs, b := st.evalGrow(a.Rhs[i])
		g(b)
		// Storing under the range's own key variable (out[k] = ... inside
		// `for k, v := range m`) launders that range's order taint: map keys
		// are unique, so each slot is written exactly once regardless of
		// iteration order. Only the owning range's taint is stripped —
		// content tainted by a different (e.g. nested) map range still
		// races: its last iteration wins the slot.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if id, ok := ix.Index.(*ast.Ident); ok {
				if obj := astutil.Obj(info, id); obj != nil {
					for _, k := range st.rangeKeys {
						if k.obj == obj {
							rhs = stripMapOrderAt(rhs, k.pos)
						}
					}
				}
			}
		}
		g(st.mergeLHS(lhs, rhs, a.Pos()))
	}
	return grew
}

// commutativeFold reports whether a compound assignment is an
// order-independent reduction (+= on numerics, |= &= ^= &^=, *=).
func (st *fnState) commutativeFold(a *ast.AssignStmt) bool {
	switch a.Tok {
	case token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN, token.MUL_ASSIGN:
		return true
	case token.ADD_ASSIGN:
		if t := st.f.Pkg.Info.TypeOf(a.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString == 0 {
				return true
			}
		}
	}
	return false
}

func stripMapOrder(v value) value {
	out := value{}
	for f, it := range v {
		dst := out.at(f)
		for t := range it.taints {
			if t.Kind != KindMapOrder {
				dst.taints[t] = true
			}
		}
		for p := range it.prefs {
			dst.prefs[p] = true
		}
	}
	return out
}

// stripMapOrderAt removes only the MapOrder taint introduced at pos (one
// specific range statement), leaving taints from other ranges intact.
func stripMapOrderAt(v value, pos token.Pos) value {
	out := value{}
	for f, it := range v {
		dst := out.at(f)
		for t := range it.taints {
			if t.Kind == KindMapOrder && t.Pos == pos {
				continue
			}
			dst.taints[t] = true
		}
		for p := range it.prefs {
			dst.prefs[p] = true
		}
	}
	return out
}

// rangeKey pairs a map range's key variable with the range position.
type rangeKey struct {
	obj types.Object
	pos token.Pos
}

// mergeLHS merges v into the lvalue target. Plain identifiers are rebinds;
// anything deeper (selector, index, deref) is a mutation of the root
// object, which escapes if the root aliases a reference parameter.
func (st *fnState) mergeLHS(lhs ast.Expr, v value, pos token.Pos) bool {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return false
		}
		return st.mergeObj(astutil.Obj(st.f.Pkg.Info, id), "", v, pos, false)
	}
	obj, field, ok := st.rootOf(lhs)
	if !ok {
		return false
	}
	return st.mergeObj(obj, field, v, pos, true)
}

// ret merges returned values into the summary's result taints and
// param→result flows.
func (st *fnState) ret(r *ast.ReturnStmt) bool {
	grew := false
	g := func(b bool) {
		if b {
			grew = true
		}
	}
	var vals []value
	if len(r.Results) == 0 {
		// Bare return: named results carry the values.
		for _, rv := range st.f.Results {
			if v, ok := st.env[rv]; ok {
				vals = append(vals, v)
			} else {
				vals = append(vals, value{})
			}
		}
	} else if len(r.Results) == 1 && len(st.f.Results) > 1 {
		vs, b := st.evalMultiGrow(r.Results[0], len(st.f.Results))
		g(b)
		vals = vs
	} else {
		for _, e := range r.Results {
			v, b := st.evalGrow(e)
			g(b)
			vals = append(vals, v)
		}
	}
	for j, v := range vals {
		if j >= len(st.sum.Results) {
			break
		}
		for f, it := range v {
			for t := range it.taints {
				m := st.sum.Results[j]
				if m[f] == nil {
					m[f] = map[Taint]bool{}
				}
				if !m[f][t] {
					m[f][t] = true
					grew = true
				}
			}
			for p := range it.prefs {
				if !st.sum.ParamToResult[p.index] {
					st.sum.ParamToResult[p.index] = true
					grew = true
				}
			}
		}
	}
	return grew
}

// rangeStmt seeds loop variables. Ranging a map taints the key and value
// with KindMapOrder (plus whatever the map's content carries); ranging
// anything else passes content through.
func (st *fnState) rangeStmt(r *ast.RangeStmt) bool {
	grew := false
	g := func(b bool) {
		if b {
			grew = true
		}
	}
	src, b := st.evalGrow(r.X)
	g(b)
	info := st.f.Pkg.Info
	isMap := false
	if t := info.TypeOf(r.X); t != nil {
		_, isMap = t.Underlying().(*types.Map)
	}
	content := value{"": src.flatten()}
	if isMap {
		t := Taint{
			Kind: KindMapOrder,
			Pos:  r.Pos(),
			What: "range over map",
			Pkg:  st.f.Pkg.Path,
		}
		content.at("").taints[t] = true
	}
	bind := func(e ast.Expr) {
		if e == nil {
			return
		}
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			g(st.mergeObj(astutil.Obj(info, id), "", content, e.Pos(), false))
		}
	}
	bind(r.Key)
	bind(r.Value)
	if isMap {
		if id, ok := r.Key.(*ast.Ident); ok && id.Name != "_" {
			if obj := astutil.Obj(info, id); obj != nil {
				st.rangeKeys = append(st.rangeKeys, rangeKey{obj, r.Pos()})
				defer func() { st.rangeKeys = st.rangeKeys[:len(st.rangeKeys)-1] }()
			}
		}
	}
	g(st.walkStmt(r.Body))
	return grew
}

// typeSwitch binds the per-clause implicit variable to the switched value.
func (st *fnState) typeSwitch(v *ast.TypeSwitchStmt) bool {
	grew := false
	g := func(b bool) {
		if b {
			grew = true
		}
	}
	info := st.f.Pkg.Info
	var subject value = value{}
	switch a := v.Assign.(type) {
	case *ast.ExprStmt:
		val, b := st.evalGrow(a.X)
		g(b)
		subject = val
	case *ast.AssignStmt:
		val, b := st.evalGrow(a.Rhs[0])
		g(b)
		subject = val
	}
	for _, s := range v.Body.List {
		cc, ok := s.(*ast.CaseClause)
		if !ok {
			continue
		}
		if obj := info.Implicits[cc]; obj != nil {
			g(st.mergeObj(obj, "", subject, cc.Pos(), false))
		}
		for _, s2 := range cc.Body {
			g(st.walkStmt(s2))
		}
	}
	return grew
}
