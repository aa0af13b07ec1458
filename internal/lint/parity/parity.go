// Package parity statically diffs surfaces that the codebase promises to
// keep in lockstep but that the compiler cannot couple:
//
//   - interface parity: every type that sets out to implement a paired
//     interface (it declares at least half of the methods) must implement
//     all of it. Inside the module the compiler enforces this at the
//     assignment site — but a harness loaded with soft type errors, or an
//     implementation whose interface assertion was lost in a refactor,
//     silently drifts. The check also names the missing methods directly,
//     where the compiler error names only the first.
//
//   - wire-codec parity: the set of gossip message types must be closed
//     under encode (p2p transport), decode, and dispatch (gossip
//     type-switch). A type handled by three of the four surfaces is a
//     protocol message that one transport silently cannot carry.
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
	Doc:  "paired surfaces must not drift: harness interfaces fully implemented, wire message types encodable+decodable+dispatchable, invariant catalogue complete, strategy hooks threaded",
	Run: func(pass *analysis.ModulePass) error {
		prog := dataflow.NewProgram(pass.Fset, pass.Pkgs)
		for _, d := range Run(prog, Default()) {
			pass.Report(d)
		}
		return nil
	},
}

// ImplContract names an interface whose implementations must be complete: a
// type declaring at least half of the interface's methods is considered an
// intended implementation and every missing method is reported.
type ImplContract struct {
	IfacePkg, IfaceName string
	// Exempt maps package-qualified type names ("pkg/path.Type") to the
	// reason their partial overlap is deliberate — a lower-layer primitive
	// that shares the vocabulary without implementing the contract.
	Exempt map[string]string
}

// MsgContract couples the wire message surfaces.
type MsgContract struct {
	// ConstPkg/ConstType name the message-type constant universe.
	ConstPkg, ConstType string
	// ConstExempt maps constant names to the reason they are exempt from
	// the must-be-used rule (e.g. a value documented as never sent).
	ConstExempt map[string]string
	// IfacePkg/IfaceName name the in-memory message interface; ImplPkg is
	// where its implementations live.
	IfacePkg, IfaceName, ImplPkg string
	// Encoder and Dispatcher type-switch directly over message types;
	// Decoder constructs them anywhere in its call closure.
	Encoder, Decoder, Dispatcher dataflow.FuncID
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
	Impl      []ImplContract
	Msg       []MsgContract
	Catalogue []CatalogueContract
	Hooks     []HookContract
}

// Default returns the repository's parity contracts.
func Default() Contracts {
	return Contracts{
		Impl: []ImplContract{
			// scenario.Runtime is deliberately absent: it has exactly one
			// implementation (harness.Fleet, pinned by a compile-time
			// assertion there), and one implementation cannot drift from
			// itself.
			//
			// The storage backends pair up behind each interface (mem/file);
			// the chaos differential byte-compares runs across them, which
			// only means anything if both sides expose the whole surface.
			{
				IfacePkg: "bitcoinng/internal/store", IfaceName: "UTXO",
				Exempt: map[string]string{
					"bitcoinng/internal/store.pagedTable": "on-disk hash table under FileUTXO; shares the ledger vocabulary (Len/Range/Poisoned/...) one layer below the contract",
					"bitcoinng/internal/utxo.memBackend":  "persistent trie table under *utxo.Set; same one-layer-below vocabulary overlap as store.pagedTable",
				},
			},
			{
				IfacePkg: "bitcoinng/internal/store", IfaceName: "ChainIndex",
				Exempt: map[string]string{
					"bitcoinng/internal/blockstore.Store": "hash-keyed block archive primitive under FileIndex; has no arrival-time column by design",
					"bitcoinng/internal/blockstore.Mem":   "in-memory mirror of blockstore.Store; same deliberate gap",
				},
			},
		},
		Msg: []MsgContract{{
			ConstPkg:  "bitcoinng/internal/wire",
			ConstType: "MsgType",
			ConstExempt: map[string]string{
				"MsgInvalid": "zero value, documented never sent",
			},
			IfacePkg:   "bitcoinng/internal/node",
			IfaceName:  "Message",
			ImplPkg:    "bitcoinng/internal/node",
			Encoder:    "bitcoinng/internal/p2p.encodeMessage",
			Decoder:    "bitcoinng/internal/p2p.decodeMessage",
			Dispatcher: "bitcoinng/internal/node.(Gossip).HandleMessage",
		}},
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
	for _, ic := range c.Impl {
		r.implContract(ic)
	}
	for _, mc := range c.Msg {
		r.msgContract(mc)
	}
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

// --- interface implementation parity -----------------------------------

func (r *runner) implContract(c ImplContract) {
	iface := r.findIface(c.IfacePkg, c.IfaceName)
	if iface == nil {
		return
	}
	want := ifaceMethods(iface)
	short := c.IfacePkg[strings.LastIndex(c.IfacePkg, "/")+1:] + "." + c.IfaceName
	for _, pkg := range r.prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, nm := range scope.Names() {
			tn, ok := scope.Lookup(nm).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, exempt := c.Exempt[pkg.Path+"."+nm]; exempt {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(named))
			have := map[string]bool{}
			for i := 0; i < ms.Len(); i++ {
				have[ms.At(i).Obj().Name()] = true
			}
			hits := 0
			var missing []string
			for _, m := range want {
				if have[m.Name()] {
					hits++
				} else {
					missing = append(missing, fmt.Sprintf("%s (interface method at %s)", m.Name(), r.pos(m.Pos())))
				}
			}
			// At least half the interface: an intended implementation, not
			// a coincidental name overlap.
			if len(missing) == 0 || hits < (len(want)+1)/2 {
				continue
			}
			r.reportf(tn.Pos(), "%s implements %d of %d %s methods but is missing %s — the harnesses must stay step-for-step interchangeable",
				nm, hits, len(want), short, strings.Join(missing, ", "))
		}
	}
}

// --- wire message parity ------------------------------------------------

func (r *runner) msgContract(c MsgContract) {
	constUniverse := r.msgConsts(c)
	if constUniverse != nil {
		r.checkConstsUsed(c, constUniverse)
		r.checkCodecClosureParity(c, constUniverse)
	}
	iface := r.findIface(c.IfacePkg, c.IfaceName)
	if iface == nil {
		return
	}
	impls := r.msgImpls(c, iface)
	if len(impls) == 0 {
		return
	}
	if enc, ok := r.prog.Funcs[c.Encoder]; ok {
		cases := r.typeSwitchCases(enc)
		for _, im := range impls {
			if !cases[im.Name()] {
				r.reportf(im.Pos(), "message type %s is not a case in %s (%s) — the TCP transport cannot send it while the simulator can",
					im.Name(), c.Encoder, r.posOfFunc(c.Encoder))
			}
		}
	}
	if dec, ok := r.prog.Funcs[c.Decoder]; ok {
		refs := r.closureTypeRefs(dec, c.ImplPkg)
		for _, im := range impls {
			if !refs[im.Name()] {
				r.reportf(im.Pos(), "message type %s is never constructed in the call closure of %s (%s) — peers can send what this transport cannot receive",
					im.Name(), c.Decoder, r.posOfFunc(c.Decoder))
			}
		}
	}
	if dsp, ok := r.prog.Funcs[c.Dispatcher]; ok {
		cases := r.typeSwitchCases(dsp)
		for _, im := range impls {
			if !cases[im.Name()] {
				r.reportf(im.Pos(), "message type %s has no case in %s (%s) — received messages of this type are silently dropped",
					im.Name(), c.Dispatcher, r.posOfFunc(c.Dispatcher))
			}
		}
	}
}

func (r *runner) posOfFunc(id dataflow.FuncID) string {
	if f, ok := r.prog.Funcs[id]; ok {
		return r.pos(f.Decl.Pos())
	}
	return "?"
}

// msgConsts returns the exported constants of the contract's message-type
// universe, or nil if the declaring package is not part of the load.
func (r *runner) msgConsts(c MsgContract) map[string]*types.Const {
	var declPkg *load.Package
	for _, p := range r.prog.Pkgs {
		if p.Path == c.ConstPkg {
			declPkg = p
		}
	}
	if declPkg == nil {
		return nil
	}
	want := c.ConstPkg + "." + c.ConstType
	out := map[string]*types.Const{}
	scope := declPkg.Types.Scope()
	for _, nm := range scope.Names() {
		cn, ok := scope.Lookup(nm).(*types.Const)
		if !ok || !cn.Exported() {
			continue
		}
		if types.TypeString(cn.Type(), nil) == want {
			out[nm] = cn
		}
	}
	return out
}

// checkConstsUsed reports message-type constants never referenced outside
// their declaring package: a type tag no codec or dispatcher knows.
func (r *runner) checkConstsUsed(c MsgContract, universe map[string]*types.Const) {
	used := map[string]bool{}
	want := c.ConstPkg + "." + c.ConstType
	for _, pkg := range r.prog.Pkgs {
		if pkg.Path == c.ConstPkg {
			continue
		}
		for id, obj := range pkg.Info.Uses {
			cn, ok := obj.(*types.Const)
			if !ok || types.TypeString(cn.Type(), nil) != want {
				continue
			}
			if _, known := universe[id.Name]; known {
				used[id.Name] = true
			}
		}
	}
	var names []string
	for nm := range universe {
		names = append(names, nm)
	}
	sort.Strings(names)
	for _, nm := range names {
		if used[nm] {
			continue
		}
		if why, exempt := c.ConstExempt[nm]; exempt {
			_ = why
			continue
		}
		r.reportf(universe[nm].Pos(), "wire message type %s is declared but never encoded, decoded, or dispatched outside %s — a dead protocol surface or a missing codec case",
			nm, c.ConstPkg)
	}
}

// checkCodecClosureParity diffs the message-type constants reachable from
// the encoder's call closure against the decoder's: every type one side of
// the codec knows, the other must too.
func (r *runner) checkCodecClosureParity(c MsgContract, universe map[string]*types.Const) {
	enc, okE := r.prog.Funcs[c.Encoder]
	dec, okD := r.prog.Funcs[c.Decoder]
	if !okE || !okD {
		return
	}
	want := c.ConstPkg + "." + c.ConstType
	encRefs := r.closureConstRefs(enc, want, universe)
	decRefs := r.closureConstRefs(dec, want, universe)
	var names []string
	for nm := range universe {
		names = append(names, nm)
	}
	sort.Strings(names)
	for _, nm := range names {
		if _, exempt := c.ConstExempt[nm]; exempt {
			continue
		}
		switch {
		case encRefs[nm] && !decRefs[nm]:
			r.reportf(universe[nm].Pos(), "codec asymmetry: %s is referenced in the call closure of %s (%s) but not of %s (%s) — the transport can produce frames it cannot parse",
				nm, c.Encoder, r.posOfFunc(c.Encoder), c.Decoder, r.posOfFunc(c.Decoder))
		case decRefs[nm] && !encRefs[nm]:
			r.reportf(universe[nm].Pos(), "codec asymmetry: %s is referenced in the call closure of %s (%s) but not of %s (%s) — the transport accepts frames it can never send",
				nm, c.Decoder, r.posOfFunc(c.Decoder), c.Encoder, r.posOfFunc(c.Encoder))
		}
	}
}

// msgImpls returns the named types in ImplPkg implementing the message
// interface (by full method-name coverage).
func (r *runner) msgImpls(c MsgContract, iface *types.Interface) []*types.TypeName {
	var implPkg *load.Package
	for _, p := range r.prog.Pkgs {
		if p.Path == c.ImplPkg {
			implPkg = p
		}
	}
	if implPkg == nil {
		return nil
	}
	want := ifaceMethods(iface)
	var out []*types.TypeName
	scope := implPkg.Types.Scope()
	for _, nm := range scope.Names() {
		tn, ok := scope.Lookup(nm).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		have := map[string]bool{}
		for i := 0; i < ms.Len(); i++ {
			have[ms.At(i).Obj().Name()] = true
		}
		all := true
		for _, m := range want {
			if !have[m.Name()] {
				all = false
				break
			}
		}
		if all {
			out = append(out, tn)
		}
	}
	return out
}

// typeSwitchCases returns the base names of all case types in the first
// type switch of f's body.
func (r *runner) typeSwitchCases(f *dataflow.Func) map[string]bool {
	out := map[string]bool{}
	if f.Decl.Body == nil {
		return out
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		for _, s := range ts.Body.List {
			cc, ok := s.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range cc.List {
				t := f.Pkg.Info.TypeOf(e)
				if t == nil {
					continue
				}
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					out[named.Obj().Name()] = true
				}
			}
		}
		return false
	})
	return out
}

// closure returns f plus every function statically reachable from it
// through the loaded program.
func (r *runner) closure(root *dataflow.Func) []*dataflow.Func {
	seen := map[dataflow.FuncID]bool{root.ID: true}
	work := []*dataflow.Func{root}
	out := []*dataflow.Func{root}
	for len(work) > 0 {
		f := work[0]
		work = work[1:]
		if f.Decl.Body == nil {
			continue
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := r.prog.Callee(f.Pkg.Info, call)
			if callee != nil && !seen[callee.ID] {
				seen[callee.ID] = true
				work = append(work, callee)
				out = append(out, callee)
			}
			return true
		})
	}
	return out
}

// closureConstRefs collects which universe constants are referenced
// anywhere in root's call closure.
func (r *runner) closureConstRefs(root *dataflow.Func, typeStr string, universe map[string]*types.Const) map[string]bool {
	out := map[string]bool{}
	for _, f := range r.closure(root) {
		if f.Decl.Body == nil {
			continue
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			cn, ok := f.Pkg.Info.Uses[id].(*types.Const)
			if !ok || types.TypeString(cn.Type(), nil) != typeStr {
				return true
			}
			if _, known := universe[id.Name]; known {
				out[id.Name] = true
			}
			return true
		})
	}
	return out
}

// closureTypeRefs collects which named types of implPkg are referenced
// anywhere in root's call closure.
func (r *runner) closureTypeRefs(root *dataflow.Func, implPkg string) map[string]bool {
	out := map[string]bool{}
	for _, f := range r.closure(root) {
		if f.Decl.Body == nil {
			continue
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			tn, ok := f.Pkg.Info.Uses[id].(*types.TypeName)
			if !ok || tn.Pkg() == nil || tn.Pkg().Path() != implPkg {
				return true
			}
			out[tn.Name()] = true
			return true
		})
	}
	return out
}

// --- catalogue parity ---------------------------------------------------

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
