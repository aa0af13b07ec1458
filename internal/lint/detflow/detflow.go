// Package detflow is the interprocedural nondeterminism-taint analyzer.
//
// It taints values produced by time.Now-family calls, OS randomness,
// map-iteration order, and environment reads, then propagates the taint
// through the module call graph on the dataflow engine's per-function
// summaries until it reaches a determinism sink — stream writes feeding
// reports/digests/wire encodings, sim event scheduling, invariant snapshot
// construction, channel sends (map order only) — or escapes through the
// results or pointer parameters of a deterministic-zone function (map
// order only: that is the consensus-forking class, cf. the applyPoison
// bug in utxo). A sink inside the range statement that introduced the
// order counts like any other, so a helper that writes a stream in map
// order is caught whether the write sits in the loop or three calls below
// it.
//
// Scopes differ by kind. Map order reaching a sink is a finding in every
// package; wall-clock, environment and randomness flows only at sinks in
// the deterministic zone (InZone), where results must be a pure function
// of (config, seed); escapes only from functions in the zone, exported or
// not. Every call that draws from math/rand's process-global source or
// builds a stdlib source in place is a finding at its call, in every
// package: all randomness flows from an injected *rand.Rand born in
// sim.NewRand, which keeps a whole run replayable from one seed and its
// streams uncorrelated. Soundness caveats (dynamic dispatch, globals,
// aliasing, a map range that exits early) are documented in DESIGN.md §9.1.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
		"snapshots, channel sends) or escape deterministic-zone " +
		"functions; global math/rand draws are findings at the call",
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
	eng := dataflow.Analyze(prog, dataflow.Config{
		SourceCall:    sourceCall,
		SinkCall:      sinkCall,
		SinkComposite: sinkComposite,
		Sanitizer:     sanitizer,
		SinkKinds: func(pkgPath string) dataflow.Kind {
			if inZone(pkgPath) {
				return ^dataflow.Kind(0)
			}
			return dataflow.KindMapOrder
		},
		UnorderedCallback: unorderedCallback,
	})
	out := randSites(prog)
	for _, f := range eng.Findings() {
		out = append(out, analysis.Diagnostic{
			Pos: f.Taint.Pos,
			Message: fmt.Sprintf("%s (%s) flows to %s at %s%s — deterministic output must be a pure function of (config, seed)",
				f.Taint.What, f.Taint.Kind, f.SinkDesc, shortPos(prog.Fset, f.SinkPos), viaPath(f.Path)),
		})
	}
	return append(out, escapes(prog, eng, inZone)...)
}

// randSites reports, in every package, each call that draws from
// math/rand's process-global source (results then depend on global call
// order) or builds a stdlib source in place (bypassing sim.DeriveSeed's
// stream separation, so two subsystems fed one base seed correlate).
func randSites(prog *dataflow.Program) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				path, name, ok := astutil.PkgFuncCall(pkg.Info, call)
				if !ok || (path != "math/rand" && path != "math/rand/v2") {
					return true
				}
				if _, isFunc := pkg.Info.Uses[call.Fun.(*ast.SelectorExpr).Sel].(*types.Func); !isFunc {
					return true // a conversion such as rand.Source(x)
				}
				builds, isCtor := randConstructors[name]
				switch {
				case !isCtor:
					out = append(out, analysis.Diagnostic{Pos: call.Pos(), Message: fmt.Sprintf(
						"package-level %s.%s draws from the process-global source: results depend on global call order; take an injected *rand.Rand from sim.NewRand", path, name)})
				case builds:
					out = append(out, analysis.Diagnostic{Pos: call.Pos(), Message: fmt.Sprintf(
						"%s.%s builds a random source in place: derive streams with sim.NewRand(base, stream) so seeds stay uncorrelated and replayable", path, name)})
				}
				return true
			})
		}
	}
	return out
}

// escapes reports MapOrder taint leaving an in-zone function through its
// results or reference parameters: even without a visible sink,
// order-dependent data published from a function (the applyPoison delta, a
// helper's unsorted key list) is a replay-divergence bug waiting for a
// caller.
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
			Message: fmt.Sprintf("%s (%s) escapes through %s of %s — callers observe a different order every run; sort before publishing",
				t.What, t.Kind, how, f.ID),
		})
	}
	for _, f := range prog.Order {
		if !inZone(f.Pkg.Path) {
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

// randConstructors are the math/rand{,/v2} functions that take an explicit
// seed or source instead of drawing from the process-global one. The value
// says whether the call builds a stdlib source in place, which randSites
// reports like a global draw; rand.New over an injected source
// (sim.NewRand's own shape) and NewZipf over an injected *rand.Rand are
// clean.
var randConstructors = map[string]bool{
	"New": false, "NewZipf": false,
	"NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

// sourceCalls maps package → function → taint kind for everything that
// samples ambient state. math/rand is not here: randSites reports every
// global draw at its call, which is also where a flow finding would land.
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
