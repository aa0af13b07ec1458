package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"bitcoinng/internal/lint/astutil"
)

// Kind classifies a nondeterminism source. Kinds form a bitmask so transfer
// edges can be filtered per kind if a client needs it.
type Kind uint8

const (
	KindWalltime Kind = 1 << iota // time.Now and friends
	KindRand                      // OS randomness (crypto/rand)
	KindMapOrder                  // map iteration order
	KindEnv                       // environment, pids, host identity
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindWalltime:
		return "wall-clock"
	case KindRand:
		return "randomness"
	case KindMapOrder:
		return "map-iteration-order"
	case KindEnv:
		return "environment"
	}
	return "tainted"
}

// Taint is one concrete nondeterminism source occurrence. It is comparable
// and used as a set key; Pos is the source site diagnostics anchor to.
type Taint struct {
	Kind Kind
	Pos  token.Pos
	What string // e.g. "time.Now", "range over map"
	Pkg  string // package path containing the source site
}

// pref marks "the value of parameter index, field" flowing through a
// function — the symbolic half of an abstract value. Field "" means the
// whole parameter.
type pref struct {
	index int
	field string
}

// item is one field's abstract value: concrete taints plus parameter
// references.
type item struct {
	taints map[Taint]bool
	prefs  map[pref]bool
}

func newItem() *item { return &item{taints: map[Taint]bool{}, prefs: map[pref]bool{}} }

func (it *item) empty() bool { return it == nil || (len(it.taints) == 0 && len(it.prefs) == 0) }

// merge unions src into it, returning whether it grew. kill drops MapOrder
// taints (the position-gated sort-sanitizer filter).
func (it *item) merge(src *item, killMapOrder bool) bool {
	if src == nil {
		return false
	}
	grew := false
	for t := range src.taints {
		if killMapOrder && t.Kind == KindMapOrder {
			continue
		}
		if !it.taints[t] {
			it.taints[t] = true
			grew = true
		}
	}
	for p := range src.prefs {
		if !it.prefs[p] {
			it.prefs[p] = true
			grew = true
		}
	}
	return grew
}

// value is a field-granular abstract value: field name → item, with ""
// holding the whole-value component. Field granularity is what keeps one
// tainted struct field (Result.WallTime) from condemning every read of the
// struct (res.Report) — the difference between a usable gate and an FP
// avalanche.
type value map[string]*item

func (v value) at(field string) *item {
	it, ok := v[field]
	if !ok {
		it = newItem()
		v[field] = it
	}
	return it
}

// flatten unions every field into one item.
func (v value) flatten() *item {
	out := newItem()
	for _, it := range v {
		out.merge(it, false)
	}
	return out
}

func (v value) empty() bool {
	for _, it := range v {
		if !it.empty() {
			return false
		}
	}
	return true
}

// readField models reading .field from v: the field's own item plus the
// whole-value component, with whole-parameter references specialized to the
// field (pref(i,"") observed through .f becomes pref(i,f), so sinks learn
// which field of the parameter they consume).
func (v value) readField(field string) value {
	out := value{}
	it := out.at("")
	it.merge(v[field], false)
	if whole := v[""]; whole != nil {
		for t := range whole.taints {
			it.taints[t] = true
		}
		for p := range whole.prefs {
			if p.field == "" {
				it.prefs[pref{p.index, field}] = true
			} else {
				it.prefs[p] = true
			}
		}
	}
	return out
}

// SinkRef records one reachable sink from a parameter: where it is, what it
// is, which taint kinds it reports, and the call chain (FuncIDs, starting at
// the summarized function) leading to it.
type SinkRef struct {
	Desc  string
	Pos   token.Pos
	Kinds Kind
	Path  []FuncID
}

// Summary is the interprocedural contract of one function, grown
// monotonically to a fixpoint.
type Summary struct {
	// Results[j] maps field → concrete taints of result j.
	Results []map[string]map[Taint]bool
	// ParamTaints[i] maps field → concrete taints the function writes into
	// (reference-typed) parameter i.
	ParamTaints []map[string]map[Taint]bool
	// ParamToResult[i] reports that parameter i's value may flow into some
	// result.
	ParamToResult []bool
	// ParamToParam[i][j] reports that parameter i's value may be written
	// into (reference-typed) parameter j.
	ParamToParam []map[int]bool
	// ParamSinks[i] maps field → sinks the parameter('s field) reaches,
	// keyed by sink position for dedup.
	ParamSinks []map[string]map[token.Pos]SinkRef
}

func newSummary(nParams, nResults int) *Summary {
	s := &Summary{
		Results:       make([]map[string]map[Taint]bool, nResults),
		ParamTaints:   make([]map[string]map[Taint]bool, nParams),
		ParamToResult: make([]bool, nParams),
		ParamToParam:  make([]map[int]bool, nParams),
		ParamSinks:    make([]map[string]map[token.Pos]SinkRef, nParams),
	}
	for j := range s.Results {
		s.Results[j] = map[string]map[Taint]bool{}
	}
	for i := 0; i < nParams; i++ {
		s.ParamTaints[i] = map[string]map[Taint]bool{}
		s.ParamToParam[i] = map[int]bool{}
		s.ParamSinks[i] = map[string]map[token.Pos]SinkRef{}
	}
	return s
}

// size is the monotone change detector: summaries only grow.
func (s *Summary) size() int {
	n := 0
	for _, m := range s.Results {
		for _, ts := range m {
			n += len(ts)
		}
	}
	for _, m := range s.ParamTaints {
		for _, ts := range m {
			n += len(ts)
		}
	}
	for _, b := range s.ParamToResult {
		if b {
			n++
		}
	}
	for _, m := range s.ParamToParam {
		n += len(m)
	}
	for _, m := range s.ParamSinks {
		for _, refs := range m {
			n += len(refs)
		}
	}
	return n
}

// TaintedResults returns the kinds present across all result taints.
func (s *Summary) TaintedResults() Kind {
	var k Kind
	for _, m := range s.Results {
		for _, ts := range m {
			for t := range ts {
				k |= t.Kind
			}
		}
	}
	return k
}

// Finding is one concrete taint reaching one sink.
type Finding struct {
	Taint    Taint
	SinkDesc string
	SinkPos  token.Pos
	// Path is the call chain (FuncIDs) from the function where the taint
	// met the call boundary down to the sink's function; empty for sinks
	// in the same function as the taint.
	Path []FuncID
}

// Config parameterizes the engine with a client's source/sink model.
type Config struct {
	// SourceCall classifies a call as introducing taint (beyond
	// propagation), e.g. time.Now() → KindWalltime.
	SourceCall func(f *Func, call *ast.CallExpr) (Taint, bool)
	// SinkCall classifies a call as a terminal sink, returning a
	// description and the argument indices (into call.Args) whose taint is
	// a finding. Index -1 names the method receiver.
	SinkCall func(f *Func, call *ast.CallExpr) (desc string, args []int, ok bool)
	// SinkComposite classifies a composite literal as a sink for its
	// element values (e.g. invariant snapshot structs).
	SinkComposite func(f *Func, lit *ast.CompositeLit) (desc string, ok bool)
	// Sanitizer classifies a call as order-restoring (sort.*), returning
	// the index of the argument it sorts.
	Sanitizer func(f *Func, call *ast.CallExpr) (arg int, ok bool)
	// UnorderedCallback classifies an unresolved call (interface dispatch,
	// function value) as invoking its func-typed arguments once per element
	// of an order-unspecified collection — Range-style iterators. The
	// engine then seeds KindMapOrder into the parameters of func-literal
	// arguments, exactly as a map range taints its loop variables. Only
	// consulted for callees without a summary: resolved module callees are
	// modelled precisely and need no callback approximation.
	UnorderedCallback func(f *Func, call *ast.CallExpr) (what string, ok bool)
	// SinkKinds says which taint kinds the sinks in a package report: a
	// sink (call, composite or channel send) in pkgPath turns only taints of
	// these kinds into findings, and so do the callers that inherit it.
	// Zero disables the package's sinks; nil means every kind everywhere.
	// Taint sources are tracked everywhere.
	SinkKinds func(pkgPath string) Kind
}

// Engine runs the interprocedural taint analysis.
type Engine struct {
	Prog *Program
	Cfg  Config

	states   map[FuncID]*fnState
	findings map[[2]token.Pos]Finding
}

// Analyze computes all summaries and findings to a global fixpoint.
func Analyze(prog *Program, cfg Config) *Engine {
	e := &Engine{
		Prog:     prog,
		Cfg:      cfg,
		states:   map[FuncID]*fnState{},
		findings: map[[2]token.Pos]Finding{},
	}
	for _, f := range prog.Order {
		e.states[f.ID] = newFnState(e, f)
	}
	// Global fixpoint: summaries grow monotonically, so iterate until a
	// full pass changes nothing. The bound is a backstop; real modules
	// settle in a handful of passes.
	for pass := 0; pass < 64; pass++ {
		changed := false
		for _, f := range prog.Order {
			if e.states[f.ID].analyze() {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return e
}

// Summary returns the computed summary for id, or nil.
func (e *Engine) Summary(id FuncID) *Summary {
	if st, ok := e.states[id]; ok {
		return st.sum
	}
	return nil
}

// Findings returns all collected findings sorted by (taint pos, sink pos).
func (e *Engine) Findings() []Finding {
	out := make([]Finding, 0, len(e.findings))
	for _, f := range e.findings {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Taint.Pos != b.Taint.Pos {
			return a.Taint.Pos < b.Taint.Pos
		}
		return a.SinkPos < b.SinkPos
	})
	return out
}

// addFinding records f, reporting whether it is new.
func (e *Engine) addFinding(f Finding) bool {
	key := [2]token.Pos{f.Taint.Pos, f.SinkPos}
	if _, ok := e.findings[key]; ok {
		return false
	}
	e.findings[key] = f
	return true
}

// killKey identifies a sanitizer target: root object plus first field.
type killKey struct {
	obj   types.Object
	field string
}

// fnState is the per-function analysis state, persistent across global
// passes (the environment and summary only grow, keeping the whole engine
// monotone).
type fnState struct {
	e   *Engine
	f   *Func
	sum *Summary
	env map[types.Object]value
	// kills maps sanitizer targets to the sanitizer call positions: a
	// MapOrder taint merged into the target at a position before some kill
	// position is dropped — the canonical collect-then-sort pattern.
	kills map[killKey][]token.Pos
	// rangeKeys pairs each enclosing map range's key variable with the
	// range position (== its taint's Pos): storing under s[key] launders
	// exactly that range's order taint, because map keys are unique so
	// each slot is written once regardless of iteration order.
	rangeKeys []rangeKey
	// sinkKinds is Config.SinkKinds for the function's package.
	sinkKinds Kind
	seeded    bool
}

func newFnState(e *Engine, f *Func) *fnState {
	st := &fnState{
		e:         e,
		f:         f,
		sum:       newSummary(len(f.Params), len(f.Results)),
		env:       map[types.Object]value{},
		kills:     map[killKey][]token.Pos{},
		sinkKinds: ^Kind(0),
	}
	if e.Cfg.SinkKinds != nil {
		st.sinkKinds = e.Cfg.SinkKinds(f.Pkg.Path)
	}
	return st
}

// analyze walks the function body to a local fixpoint, returning whether
// the summary grew.
func (st *fnState) analyze() bool {
	if !st.seeded {
		st.seeded = true
		for i, p := range st.f.Params {
			v := value{}
			v.at("").prefs[pref{i, ""}] = true
			st.env[p] = v
		}
		st.collectKills(st.f.Decl.Body)
	}
	before := st.sum.size()
	// Local sweeps: assignments chain value through locals one hop per
	// sweep; loop until stable with a backstop for pathological chains.
	for sweep := 0; sweep < 32; sweep++ {
		grew := st.walkStmt(st.f.Decl.Body)
		if !grew {
			break
		}
	}
	return st.sum.size() > before
}

// collectKills pre-scans body for sanitizer calls so the kill filter is a
// static fact (insertion-time filtering keeps the fixpoint monotone — no
// taint is ever removed once admitted).
func (st *fnState) collectKills(body *ast.BlockStmt) {
	if st.e.Cfg.Sanitizer == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		idx, ok := st.e.Cfg.Sanitizer(st.f, call)
		if !ok || idx >= len(call.Args) {
			return true
		}
		if obj, field, ok := st.rootOf(call.Args[idx]); ok {
			k := killKey{obj, field}
			st.kills[k] = append(st.kills[k], call.Pos())
		}
		return true
	})
}

// killedAt reports whether MapOrder taint merged into (obj, field) at pos
// is neutralized by a later sanitizer call on the same target.
func (st *fnState) killedAt(obj types.Object, field string, pos token.Pos) bool {
	for _, k := range []killKey{{obj, field}, {obj, ""}} {
		for _, kp := range st.kills[k] {
			if kp > pos {
				return true
			}
		}
	}
	return false
}

// rootOf resolves an lvalue-ish expression to its root object and first
// field ("x" → (x,""), "x.f.g" → (x,f), "&x.f" → (x,f), "m[k]" → (m,"")).
func (st *fnState) rootOf(e ast.Expr) (types.Object, string, bool) {
	field := ""
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if v.Name == "_" {
				return nil, "", false
			}
			if obj := astutil.Obj(st.f.Pkg.Info, v); obj != nil {
				return obj, field, true
			}
			return nil, "", false
		case *ast.SelectorExpr:
			// Skip package-qualified selectors (pkg.Var): globals are out
			// of scope for the engine.
			if id, ok := v.X.(*ast.Ident); ok {
				if _, isPkg := st.f.Pkg.Info.Uses[id].(*types.PkgName); isPkg {
					return nil, "", false
				}
			}
			field = v.Sel.Name // innermost-so-far; loop ends at root, keeping the FIRST field
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.IndexExpr:
			field = ""
			e = v.X
		case *ast.SliceExpr:
			field = ""
			e = v.X
		default:
			return nil, "", false
		}
	}
}

// mergeObj merges v into env[(obj, field)] at source position pos,
// applying the sanitizer kill filter. When mutating is set (the write went
// through a selector/index/deref, or composes a callee's parameter
// mutation — not a plain rebind of the identifier) and obj aliases a
// reference-typed parameter, the write escapes into the summary.
func (st *fnState) mergeObj(obj types.Object, field string, v value, pos token.Pos, mutating bool) bool {
	if obj == nil {
		return false
	}
	dst, ok := st.env[obj]
	if !ok {
		dst = value{}
		st.env[obj] = dst
	}
	kill := st.killedAt(obj, field, pos)
	grew := false
	if field == "" && !mutating {
		// Whole-object rebind: preserve the field structure of v.
		for f, it := range v {
			if dst.at(f).merge(it, kill || st.killedAt(obj, f, pos)) {
				grew = true
			}
		}
	} else {
		if dst.at(field).merge(v.flatten(), kill) {
			grew = true
		}
	}
	if !mutating {
		return grew
	}
	// Mutation through a parameter alias escapes the function.
	if whole := dst[""]; whole != nil {
		for p := range whole.prefs {
			if p.field != "" || !referenceLike(st.f.Params, p.index) {
				continue
			}
			flat := v.flatten()
			sf := field
			for t := range flat.taints {
				if kill && t.Kind == KindMapOrder {
					continue
				}
				m := st.sum.ParamTaints[p.index]
				if m[sf] == nil {
					m[sf] = map[Taint]bool{}
				}
				if !m[sf][t] {
					m[sf][t] = true
					grew = true
				}
			}
			for src := range flat.prefs {
				if !st.sum.ParamToParam[src.index][p.index] {
					st.sum.ParamToParam[src.index][p.index] = true
					grew = true
				}
			}
		}
	}
	return grew
}

// referenceLike reports whether param i's type lets writes escape to the
// caller (pointer, map, slice, chan, interface).
func referenceLike(params []*types.Var, i int) bool {
	if i >= len(params) {
		return false
	}
	switch params[i].Type().Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}
