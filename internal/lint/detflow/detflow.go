// Package detflow is the interprocedural nondeterminism-taint analyzer.
//
// The per-function analyzers (walltime, globalrand, maporder) flag
// nondeterminism sources syntactically at the call site; what they cannot
// see is a value laundered through helper calls — a wall-clock read
// returned through two hops, a map-range key passed to a function that
// writes it into a digest, a delta built in map order inside an unexported
// helper and returned from an exported consensus entry point. detflow
// closes that gap: it taints values produced by time.Now-family calls,
// global/OS randomness, map-iteration order, and environment reads, then
// propagates the taint through the module call graph on the dataflow
// engine's per-function summaries until it reaches a determinism sink —
// stream writes feeding reports/digests/wire encodings, sim event
// scheduling, invariant snapshot construction — or escapes through an
// exported deterministic-zone function's results or pointer parameters
// (map order only: that is the consensus-forking class, cf. the PR-6
// applyPoison bug).
//
// Division of labor with the syntactic suite: a MapOrder sink lexically
// inside the introducing range statement is maporder's finding, not ours;
// everything crossing a statement or call boundary is ours. Soundness
// caveats (dynamic dispatch, globals, aliasing) are documented in
// DESIGN.md §9.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"

	"bitcoinng/internal/lint/analysis"
	"bitcoinng/internal/lint/astutil"
	"bitcoinng/internal/lint/dataflow"
)

// Analyzer is the detflow check.
var Analyzer = &analysis.ModuleAnalyzer{
	Name: "detflow",
	Doc: "interprocedural taint analysis: wall-clock/randomness/map-order/" +
		"environment values propagated through calls must not reach " +
		"determinism sinks (stream writes, sim scheduling, invariant " +
		"snapshots) or escape exported deterministic-zone functions",
	Run: run,
}

func run(pass *analysis.ModulePass) error {
	prog := dataflow.NewProgram(pass.Fset, pass.Pkgs)
	for _, d := range Run(prog, InZone) {
		pass.Report(d)
	}
	return nil
}

// InZone is the deterministic zone, shared with walltime: every module
// package whose results must be a pure function of (config, seed) — the
// root package and all of internal/ — except the live transport
// (bitcoinng/internal/p2p — wall time is its job), the lint suite itself,
// and the CLIs/examples (operator-facing output; the determinism gates
// cover them end to end dynamically).
func InZone(pkgPath string) bool {
	if pkgPath == "bitcoinng" {
		return true
	}
	if !strings.HasPrefix(pkgPath, "bitcoinng/internal/") {
		return false
	}
	rest := strings.TrimPrefix(pkgPath, "bitcoinng/internal/")
	if rest == "p2p" || strings.HasPrefix(rest, "p2p/") {
		return false
	}
	if rest == "lint" || strings.HasPrefix(rest, "lint/") {
		return false
	}
	return true
}

// Run analyzes prog with the determinism source/sink model and returns
// formatted diagnostics. The zone predicate is a parameter so the
// regression tests can analyze sandbox copies loaded under non-module
// paths.
func Run(prog *dataflow.Program, inZone func(string) bool) []analysis.Diagnostic {
	eng := dataflow.Analyze(prog, Config(inZone))
	var out []analysis.Diagnostic
	for _, f := range eng.Findings() {
		if f.SameRange {
			// The syntactic maporder analyzer owns sinks inside the
			// introducing range statement.
			continue
		}
		out = append(out, analysis.Diagnostic{
			Pos: f.Taint.Pos,
			Message: fmt.Sprintf("%s (%s) flows to %s at %s%s — deterministic output must be a pure function of (config, seed)",
				f.Taint.What, f.Taint.Kind, f.SinkDesc, shortPos(prog.Fset, f.SinkPos), viaPath(f.Path)),
		})
	}
	out = append(out, escapes(prog, eng, inZone)...)
	return out
}

// escapes reports MapOrder taint leaving an exported in-zone function
// through its results or reference parameters: even without a visible sink,
// order-dependent data published from a consensus entry point (the
// applyPoison delta) is a replay-divergence bug waiting for a caller.
func escapes(prog *dataflow.Program, eng *dataflow.Engine, inZone func(string) bool) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	seen := map[[2]token.Pos]bool{}
	report := func(t dataflow.Taint, f *dataflow.Func, how string) {
		key := [2]token.Pos{t.Pos, f.Decl.Pos()}
		if t.Kind != dataflow.KindMapOrder || seen[key] {
			return
		}
		seen[key] = true
		out = append(out, analysis.Diagnostic{
			Pos: t.Pos,
			Message: fmt.Sprintf("%s (%s) escapes through %s of exported %s — callers observe a different order every run; sort before publishing",
				t.What, t.Kind, how, f.ID),
		})
	}
	for _, f := range prog.Order {
		if !inZone(f.Pkg.Path) || !f.Exported() {
			continue
		}
		sum := eng.Summary(f.ID)
		if sum == nil {
			continue
		}
		for _, m := range sum.Results {
			for _, ts := range m {
				for t := range ts {
					report(t, f, "a result")
				}
			}
		}
		for _, m := range sum.ParamTaints {
			for _, ts := range m {
				for t := range ts {
					report(t, f, "a pointer parameter")
				}
			}
		}
	}
	return out
}

// Config builds the engine configuration for the given zone predicate.
func Config(inZone func(string) bool) dataflow.Config {
	return dataflow.Config{
		SourceCall:        sourceCall,
		SinkCall:          sinkCall,
		SinkComposite:     sinkComposite,
		Sanitizer:         sanitizer,
		UnorderedCallback: unorderedCallback,
		InZone:            inZone,
	}
}

// unorderedCallback classifies Range-style iterator methods whose callee the
// engine could not resolve (interface dispatch: utxo.Backend.Range,
// chain.UTXOStore.Range, sync.Map.Range). Their contract specifies no
// visiting order, so the callback parameters carry map-order taint exactly
// like map-range loop variables. Resolved concrete Range methods are
// excluded upstream: the engine models those bodies precisely, and the map
// range inside them seeds the taint itself.
func unorderedCallback(f *dataflow.Func, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" {
		return "", false
	}
	return "Range over unordered store", true
}

// randConstructors are the math/rand entry points that take an explicit
// seed/source and are therefore deterministic when seeded deterministically
// — everything else in math/rand{,/v2} reads the shared global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// sourceCalls maps package → function → taint kind for everything that
// samples ambient state.
var sourceCalls = map[string]map[string]dataflow.Kind{
	"time": {
		"Now": dataflow.KindWalltime, "Since": dataflow.KindWalltime,
		"Until": dataflow.KindWalltime,
	},
	"os": {
		"Getenv": dataflow.KindEnv, "LookupEnv": dataflow.KindEnv,
		"Environ": dataflow.KindEnv, "Getpid": dataflow.KindEnv,
		"Getppid": dataflow.KindEnv, "Hostname": dataflow.KindEnv,
	},
	"runtime": {
		"NumCPU": dataflow.KindEnv, "NumGoroutine": dataflow.KindEnv,
	},
	"crypto/rand": {
		"Read": dataflow.KindRand, "Int": dataflow.KindRand,
		"Prime": dataflow.KindRand, "Text": dataflow.KindRand,
	},
	// maps.Keys/Values/All iterate in randomized order exactly like a
	// range statement.
	"maps": {
		"Keys": dataflow.KindMapOrder, "Values": dataflow.KindMapOrder,
		"All": dataflow.KindMapOrder,
	},
}

func sourceCall(f *dataflow.Func, call *ast.CallExpr) (dataflow.Taint, bool) {
	pkg, name, ok := astutil.PkgFuncCall(f.Pkg.Info, call)
	if !ok {
		return dataflow.Taint{}, false
	}
	kind, ok := sourceCalls[pkg][name]
	if !ok && (pkg == "math/rand" || pkg == "math/rand/v2") && !randConstructors[name] {
		kind, ok = dataflow.KindRand, true
	}
	if !ok {
		return dataflow.Taint{}, false
	}
	return dataflow.Taint{
		Kind: kind,
		Pos:  call.Pos(),
		What: pkg + "." + name,
		Pkg:  f.Pkg.Path,
	}, true
}

// streamFuncs write their value arguments into an ordered stream; the map
// holds the index of the first value argument (-2 means "all arguments").
var streamFuncs = map[string]map[string]int{
	"fmt": {
		"Fprint": 1, "Fprintf": 1, "Fprintln": 1,
		"Print": 0, "Printf": 0, "Println": 0,
	},
	"io":              {"WriteString": 1, "Copy": 1},
	"encoding/binary": {"Write": 2},
}

// simDispatch are the event-scheduling methods: a tainted delay or payload
// makes event ordering itself nondeterministic.
var simDispatch = map[[2]string]map[string]bool{
	{"bitcoinng/internal/sim", "Loop"}: {
		"PostEvent": true, "PostEventPrio": true, "At": true, "After": true,
	},
	{"bitcoinng/internal/sim", "ShardedLoop"}: {
		"ScheduleGlobal": true, "OnBarrier": true,
	},
}

func sinkCall(f *dataflow.Func, call *ast.CallExpr) (string, []int, bool) {
	info := f.Pkg.Info
	if pkg, name, ok := astutil.PkgFuncCall(info, call); ok {
		if first, ok := streamFuncs[pkg][name]; ok {
			var idxs []int
			for i := first; i < len(call.Args); i++ {
				idxs = append(idxs, i)
			}
			return "stream write (" + pkg + "." + name + ")", idxs, true
		}
		return "", nil, false
	}
	if _, recvT, name, ok := astutil.MethodCall(info, call); ok {
		if n := astutil.Named(recvT); n != nil && n.Obj().Pkg() != nil {
			key := [2]string{n.Obj().Pkg().Path(), n.Obj().Name()}
			if simDispatch[key][name] {
				idxs := make([]int, len(call.Args))
				for i := range idxs {
					idxs[i] = i
				}
				return "sim event scheduling (" + n.Obj().Name() + "." + name + ")", idxs, true
			}
		}
		if astutil.StreamWrite(name, recvT) {
			idxs := make([]int, len(call.Args))
			for i := range idxs {
				idxs[i] = i
			}
			return "stream write (io.Writer." + name + ")", idxs, true
		}
	}
	return "", nil, false
}

// sinkComposite flags tainted fields in invariant snapshot structs: the
// invariant checker's view of the world must itself be deterministic.
func sinkComposite(f *dataflow.Func, lit *ast.CompositeLit) (string, bool) {
	t := f.Pkg.Info.TypeOf(lit)
	if t == nil {
		return "", false
	}
	if astutil.NamedIs(t, "bitcoinng/internal/invariant", "Snapshot") ||
		astutil.NamedIs(t, "bitcoinng/internal/invariant", "NodeState") {
		return "invariant snapshot", true
	}
	return "", false
}

// sanitizer kills map-order taint on the first argument of a sort call.
func sanitizer(f *dataflow.Func, call *ast.CallExpr) (int, bool) {
	return 0, astutil.SortCall(f.Pkg.Info, call)
}

// shortPos renders a position as the last two path elements plus line —
// long enough to be unambiguous in this repository, short enough to read.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	dir, base := filepath.Split(p.Filename)
	return fmt.Sprintf("%s%s:%d", filepath.Base(filepath.Clean(dir))+string(filepath.Separator), base, p.Line)
}

// viaPath renders the interprocedural call chain.
func viaPath(path []dataflow.FuncID) string {
	if len(path) == 0 {
		return ""
	}
	parts := make([]string, len(path))
	for i, id := range path {
		parts[i] = strings.TrimPrefix(string(id), "bitcoinng/internal/")
		parts[i] = strings.TrimPrefix(parts[i], "bitcoinng/")
	}
	return " (via " + strings.Join(parts, " -> ") + ")"
}
