package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"bitcoinng/internal/lint/astutil"
)

// evalGrow evaluates e to an abstract value. The bool reports whether any
// persistent state (environment, summary, findings) grew as a side effect
// — calls inside expressions mutate arguments and hit sinks.
func (st *fnState) evalGrow(e ast.Expr) (value, bool) {
	if e == nil {
		return value{}, false
	}
	info := st.f.Pkg.Info
	switch v := e.(type) {
	case *ast.Ident:
		if obj := astutil.Obj(info, v); obj != nil {
			if val, ok := st.env[obj]; ok {
				return val, false
			}
		}
		return value{}, false
	case *ast.SelectorExpr:
		// Package-qualified selector (pkg.Var): globals are out of scope.
		if id, ok := v.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				return value{}, false
			}
		}
		if obj, field, ok := st.rootOf(v); ok && field != "" {
			if val, ok := st.env[obj]; ok {
				return val.readField(field), false
			}
			return value{}, false
		}
		inner, grew := st.evalGrow(v.X)
		return inner.readField(v.Sel.Name), grew
	case *ast.CallExpr:
		vals, grew := st.evalMultiGrow(v, 1)
		return vals[0], grew
	case *ast.ParenExpr:
		return st.evalGrow(v.X)
	case *ast.StarExpr:
		return st.evalGrow(v.X)
	case *ast.UnaryExpr:
		if v.Op == token.ARROW { // channel receive: out of scope
			_, grew := st.evalGrow(v.X)
			return value{}, grew
		}
		return st.evalGrow(v.X)
	case *ast.BinaryExpr:
		lv, g1 := st.evalGrow(v.X)
		rv, g2 := st.evalGrow(v.Y)
		switch v.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ,
			token.LAND, token.LOR:
			// Comparisons/logic produce booleans: implicit (control) flows
			// are not tracked.
			return value{}, g1 || g2
		}
		out := value{}
		it := out.at("")
		it.merge(lv.flatten(), false)
		it.merge(rv.flatten(), false)
		return out, g1 || g2
	case *ast.IndexExpr:
		xv, g1 := st.evalGrow(v.X)
		iv, g2 := st.evalGrow(v.Index)
		out := value{}
		it := out.at("")
		it.merge(xv.flatten(), false)
		it.merge(iv.flatten(), false)
		return out, g1 || g2
	case *ast.IndexListExpr:
		return st.evalGrow(v.X)
	case *ast.SliceExpr:
		return st.evalGrow(v.X)
	case *ast.TypeAssertExpr:
		return st.evalGrow(v.X)
	case *ast.CompositeLit:
		return st.compositeLit(v)
	case *ast.FuncLit:
		// A closure body shares the enclosing environment (captures) —
		// walk it inline, over-approximating "it runs". Its own value
		// carries nothing.
		grew := st.walkStmt(v.Body)
		return value{}, grew
	case *ast.KeyValueExpr:
		return st.evalGrow(v.Value)
	}
	return value{}, false
}

// compositeLit builds a field-granular value for struct literals (so
// Result{WallTime: t} taints only the WallTime field) and a flat one for
// map/slice/array literals; it also applies the client's composite-sink
// hook (invariant snapshots).
func (st *fnState) compositeLit(lit *ast.CompositeLit) (value, bool) {
	info := st.f.Pkg.Info
	out := value{}
	grew := false
	isStruct := false
	var strct *types.Struct
	if t := info.TypeOf(lit); t != nil {
		strct, isStruct = t.Underlying().(*types.Struct)
	}
	for i, elt := range lit.Elts {
		var ev value
		var g bool
		field := ""
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			ev, g = st.evalGrow(kv.Value)
			if isStruct {
				if id, ok := kv.Key.(*ast.Ident); ok {
					field = id.Name
				}
			} else {
				kvval, g2 := st.evalGrow(kv.Key)
				g = g || g2
				ev = value{"": ev.flatten()}
				ev.at("").merge(kvval.flatten(), false)
			}
		} else {
			ev, g = st.evalGrow(elt)
			if isStruct && strct != nil && i < strct.NumFields() {
				field = strct.Field(i).Name()
			}
		}
		grew = grew || g
		if flat := ev.flatten(); !flat.empty() {
			out.at(field).merge(flat, false)
		}
	}
	if st.sinkKinds != 0 && st.e.Cfg.SinkComposite != nil && !out.empty() {
		if desc, ok := st.e.Cfg.SinkComposite(st.f, lit); ok {
			grew = st.hitSink(out.flatten(), desc, lit.Pos(), st.sinkKinds, nil) || grew
		}
	}
	return out, grew
}

// evalMultiGrow evaluates an expression expected to produce n values
// (calls, type asserts, map indexes in tuple position).
func (st *fnState) evalMultiGrow(e ast.Expr, n int) ([]value, bool) {
	pad := func(vals []value, grew bool) ([]value, bool) {
		for len(vals) < n {
			vals = append(vals, value{})
		}
		return vals, grew
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		// v, ok := m[k] / x.(T) / <-ch: first value carries content.
		v, grew := st.evalGrow(e)
		return pad([]value{v}, grew)
	}
	return pad(st.call(call))
}

// call evaluates a call expression: conversions, builtins, sanitizers,
// sources, sinks, summarized module callees, and conservative pass-through
// for everything else (unresolved stdlib/interface calls keep taint alive
// through their results but introduce none and mutate nothing).
func (st *fnState) call(call *ast.CallExpr) ([]value, bool) {
	info := st.f.Pkg.Info
	grew := false
	g := func(b bool) {
		if b {
			grew = true
		}
	}

	// Type conversion T(x): pass-through.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		v, b := st.evalGrow(call.Args[0])
		return []value{v}, b
	}

	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isB := astutil.Obj(info, id).(*types.Builtin); isB {
			return st.builtin(id.Name, call)
		}
	}

	// Resolve the callee up front: an order-unspecified iterator callback
	// must be seeded before its func-literal body is walked, which happens
	// inline during argument evaluation below.
	callee := st.e.Prog.Callee(info, call)
	if callee == nil && st.e.Cfg.UnorderedCallback != nil {
		if what, ok := st.e.Cfg.UnorderedCallback(st.f, call); ok {
			t := Taint{
				Kind: KindMapOrder,
				Pos:  call.Pos(),
				What: what,
				Pkg:  st.f.Pkg.Path,
			}
			tv := value{}
			tv.at("").taints[t] = true
			for _, a := range call.Args {
				lit, isLit := a.(*ast.FuncLit)
				if !isLit || lit.Type.Params == nil {
					continue
				}
				for _, fld := range lit.Type.Params.List {
					for _, name := range fld.Names {
						if name.Name == "_" {
							continue
						}
						if obj := astutil.Obj(info, name); obj != nil {
							g(st.mergeObj(obj, "", tv, call.Pos(), false))
						}
					}
				}
			}
		}
	}

	// Evaluate arguments once (receiver first for method calls).
	var argvals []value
	recvOffset := 0
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, okSel := info.Selections[sel]; okSel && s.Kind() == types.MethodVal {
			rv, b := st.evalGrow(sel.X)
			g(b)
			argvals = append(argvals, rv)
			recvOffset = 1
		}
	}
	for _, a := range call.Args {
		av, b := st.evalGrow(a)
		g(b)
		argvals = append(argvals, av)
	}

	// Sanitizer calls (sort.*) were pre-scanned into the kill set; their
	// own evaluation contributes nothing further.
	if st.e.Cfg.Sanitizer != nil {
		if _, ok := st.e.Cfg.Sanitizer(st.f, call); ok {
			return []value{{}}, grew
		}
	}

	nResults := 1
	if tv, ok := info.Types[call]; ok {
		if tuple, isT := tv.Type.(*types.Tuple); isT {
			nResults = tuple.Len()
		}
	}

	// Terminal sinks.
	if st.sinkKinds != 0 && st.e.Cfg.SinkCall != nil {
		if desc, idxs, ok := st.e.Cfg.SinkCall(st.f, call); ok {
			for _, idx := range idxs {
				ai := idx + recvOffset
				if idx == -1 {
					ai = 0
					if recvOffset == 0 {
						continue
					}
				}
				if ai < len(argvals) {
					g(st.hitSink(argvals[ai].flatten(), desc, call.Pos(), st.sinkKinds, nil))
				}
			}
		}
	}

	// Source calls introduce fresh taint on their result.
	if st.e.Cfg.SourceCall != nil {
		if t, ok := st.e.Cfg.SourceCall(st.f, call); ok {
			if t.Pkg == "" {
				t.Pkg = st.f.Pkg.Path
			}
			if !t.Pos.IsValid() {
				t.Pos = call.Pos()
			}
			out := value{}
			it := out.at("")
			it.taints[t] = true
			// Pass arguments through too: time.Since(start) both reads the
			// clock and consumes start.
			for _, av := range argvals[recvOffset:] {
				it.merge(av.flatten(), false)
			}
			res := make([]value, nResults)
			for j := range res {
				res[j] = out
			}
			return res, grew
		}
	}

	// Module callee with a summary: compose it.
	if callee != nil {
		res, b := st.compose(callee, argvals, call, recvOffset)
		return res, grew || b
	}

	// Unknown callee (stdlib, interface dispatch, function values):
	// conservative pass-through of arguments into results; no mutation, no
	// fresh taint.
	flat := newItem()
	for _, av := range argvals {
		flat.merge(av.flatten(), false)
	}
	res := make([]value, nResults)
	pass := value{"": flat}
	for j := range res {
		res[j] = pass
	}
	return res, grew
}

// builtin models the handful of builtins that move data.
func (st *fnState) builtin(name string, call *ast.CallExpr) ([]value, bool) {
	grew := false
	union := func(strip bool, args ...ast.Expr) value {
		out := value{}
		it := out.at("")
		for _, a := range args {
			v, b := st.evalGrow(a)
			grew = grew || b
			it.merge(v.flatten(), false)
		}
		if strip {
			return stripMapOrder(out)
		}
		return out
	}
	switch name {
	case "append":
		return []value{union(false, call.Args...)}, grew
	case "copy":
		if len(call.Args) == 2 {
			src, b := st.evalGrow(call.Args[1])
			grew = grew || b
			if obj, field, ok := st.rootOf(call.Args[0]); ok {
				grew = st.mergeObj(obj, field, src, call.Pos(), true) || grew
			}
		}
		return []value{{}}, grew
	case "min", "max":
		// Order-independent reductions: a map-range fold through min/max
		// yields the same result in any order.
		return []value{union(true, call.Args...)}, grew
	case "len", "cap", "delete", "clear", "close", "make", "new",
		"panic", "recover", "print", "println":
		for _, a := range call.Args {
			_, b := st.evalGrow(a)
			grew = grew || b
		}
		return []value{{}}, grew
	}
	return []value{union(false, call.Args...)}, grew
}

// hitSink records the value it reaching a sink that reports kinds: its
// concrete taints of those kinds are findings, and its parameter references
// become ParamSinks so callers inherit the sink. path is the call chain from
// this function's callee down to the sink, nil for a sink in this function.
func (st *fnState) hitSink(it *item, desc string, pos token.Pos, kinds Kind, path []FuncID) bool {
	grew := false
	for t := range it.taints {
		if t.Kind&kinds != 0 && st.e.addFinding(Finding{Taint: t, SinkDesc: desc, SinkPos: pos, Path: path}) {
			grew = true
		}
	}
	if len(it.prefs) > 0 {
		ref := SinkRef{Desc: desc, Pos: pos, Kinds: kinds, Path: append([]FuncID{st.f.ID}, path...)}
		for p := range it.prefs {
			grew = st.addParamSink(p, ref) || grew
		}
	}
	return grew
}

// addParamSink records that parameter p reaches ref.
func (st *fnState) addParamSink(p pref, ref SinkRef) bool {
	m := st.sum.ParamSinks[p.index]
	if m[p.field] == nil {
		m[p.field] = map[token.Pos]SinkRef{}
	}
	if _, ok := m[p.field][ref.Pos]; ok {
		return false
	}
	m[p.field][ref.Pos] = ref
	return true
}

// compose applies a callee's summary at a call site: result taints flow
// out, parameter mutations flow into argument roots, and the callee's
// reachable sinks fire for tainted arguments (emitting findings) or chain
// into this function's own ParamSinks for parameter-referencing arguments.
// recvOffset is 1 when argvals[0] is a method receiver.
func (st *fnState) compose(callee *Func, argvals []value, call *ast.CallExpr, recvOffset int) ([]value, bool) {
	grew := false
	g := func(b bool) {
		if b {
			grew = true
		}
	}
	sum := st.e.states[callee.ID].sum
	nP := len(callee.Params)

	// Callee parameter index → argument value / expression. The callee's
	// receiver (if any) is Params[0], and argvals holds the receiver first
	// for method calls — for method-expression calls T.M(recv, args...) the
	// receiver arrives positionally — so the index mapping is the identity
	// in every case. Variadic tails fold into the last parameter.
	argFor := func(i int) value {
		if i < 0 || i >= len(argvals) {
			return value{}
		}
		return argvals[i]
	}
	paramArg := func(q int) value {
		if callee.Sig.Variadic() && q == nP-1 {
			out := value{}
			it := out.at("")
			for i := q; i < len(argvals); i++ {
				it.merge(argFor(i).flatten(), false)
			}
			return out
		}
		return argFor(q)
	}
	paramExpr := func(q int) ast.Expr {
		if recvOffset == 1 {
			if q == 0 {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					return sel.X
				}
				return nil
			}
			q--
		}
		if q >= 0 && q < len(call.Args) {
			return call.Args[q]
		}
		return nil
	}

	// Sinks reachable from callee parameters.
	for q := 0; q < nP; q++ {
		fields := sum.ParamSinks[q]
		if len(fields) == 0 {
			continue
		}
		av := paramArg(q)
		for fq, refs := range fields {
			var it *item
			if fq == "" {
				it = av.flatten()
			} else {
				it = av.readField(fq).flatten()
			}
			if it.empty() {
				continue
			}
			for _, ref := range refs {
				g(st.hitSink(it, ref.Desc, ref.Pos, ref.Kinds, ref.Path))
			}
		}
	}

	// Parameter mutations flow back into argument roots: the callee wrote
	// taints into param q's field — apply them to the argument's object
	// and, when the argument aliases one of our own reference parameters,
	// escalate into our own summary.
	applyMutation := func(q int, field string, taints map[Taint]bool) {
		it := newItem()
		for t := range taints {
			it.taints[t] = true
		}
		if argExpr := paramExpr(q); argExpr != nil {
			if obj, af, ok := st.rootOf(argExpr); ok {
				dstField := field
				if af != "" {
					dstField = af
				}
				g(st.mergeObj(obj, dstField, value{"": it}, call.Pos(), true))
			}
		}
		av := paramArg(q)
		if whole := av[""]; whole != nil {
			for p := range whole.prefs {
				if p.field != "" || !referenceLike(st.f.Params, p.index) {
					continue
				}
				m := st.sum.ParamTaints[p.index]
				if m[field] == nil {
					m[field] = map[Taint]bool{}
				}
				for t := range taints {
					if !m[field][t] {
						m[field][t] = true
						g(true)
					}
				}
			}
		}
	}
	for q := 0; q < nP; q++ {
		for field, taints := range sum.ParamTaints[q] {
			applyMutation(q, field, taints)
		}
		// Param→param edges move this call site's argument taint into the
		// destination argument (and chain symbolically for our params).
		for to := range sum.ParamToParam[q] {
			src := paramArg(q).flatten()
			if len(src.taints) > 0 {
				applyMutation(to, "", src.taints)
			}
			av := paramArg(to)
			if whole := av[""]; whole != nil {
				for p := range whole.prefs {
					if p.field != "" || !referenceLike(st.f.Params, p.index) {
						continue
					}
					for sp := range src.prefs {
						if !st.sum.ParamToParam[sp.index][p.index] {
							st.sum.ParamToParam[sp.index][p.index] = true
							g(true)
						}
					}
				}
			}
		}
	}

	// Results: concrete per-field taints plus coarse param→result flow.
	nR := len(callee.Results)
	if nR == 0 {
		nR = 1
	}
	res := make([]value, nR)
	for j := range res {
		res[j] = value{}
	}
	for j := 0; j < len(sum.Results) && j < nR; j++ {
		for f, ts := range sum.Results[j] {
			it := res[j].at(f)
			for t := range ts {
				it.taints[t] = true
			}
		}
	}
	for q := 0; q < nP; q++ {
		if !sum.ParamToResult[q] {
			continue
		}
		flat := paramArg(q).flatten()
		if flat.empty() {
			continue
		}
		for j := range res {
			res[j].at("").merge(flat, false)
		}
	}
	return res, grew
}
