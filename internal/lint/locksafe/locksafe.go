// Package locksafe builds a per-package lock-ordering graph and flags two
// hazards around the repository's concurrency surfaces.
//
//  1. Lock-order cycles. Two sync.Mutex/RWMutex values acquired in opposite
//     orders on two code paths deadlock under contention. The analyzer
//     identifies each mutex by its anchor — "Type.field" for a mutex field,
//     "pkg.var" for a package-level mutex — walks every function tracking
//     the held set (Lock/RLock push, Unlock/RUnlock pop, defer Unlock holds
//     to function end), propagates acquisitions through same-package calls
//     to a fixpoint, and reports any cycle in the resulting acquired-while-
//     holding graph.
//
//  2. Locks held across deterministic dispatch. validate.Pool.Run (and its
//     Warm* wrappers) blocks until worker goroutines finish: holding a
//     mutex across it deadlocks the pool the moment a worker touches the
//     same lock — the striped connect-cache hazard. sim.Loop.PostEvent/
//     PostEventPrio/At/After/Arm and sim.ShardedLoop.ScheduleGlobal/OnBarrier
//     enqueue callbacks that run on a shard's execution context; capturing
//     a held mutex there is a latent cross-shard deadlock and, worse, makes
//     event timing depend on lock contention. Holding any mutex at such a
//     call site is flagged.
//
// The analysis is intraprocedural with one-level-of-package call summaries:
// conservative enough to gate CI, precise enough that the repository's real
// locking (leaf mutexes guarding short sections) passes clean.
package locksafe

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"bitcoinng/internal/lint/analysis"
	"bitcoinng/internal/lint/astutil"
)

// Analyzer is the locksafe check.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "flags lock-order cycles between sync.Mutex/RWMutex values and " +
		"mutexes held across validate.Pool.Run / sim.Loop event scheduling",
	Run: run,
}

// dispatchMethods maps receiver type (package path, type name) to the
// method names that dispatch work onto other goroutines/shards.
var dispatchMethods = map[[2]string]map[string]bool{
	{"bitcoinng/internal/validate", "Pool"}: {
		"Run": true, "WarmTransactions": true, "WarmBlock": true,
	},
	{"bitcoinng/internal/sim", "Loop"}: {
		"PostEvent": true, "PostEventPrio": true, "At": true, "After": true, "Arm": true,
	},
	{"bitcoinng/internal/sim", "ShardedLoop"}: {
		"ScheduleGlobal": true, "OnBarrier": true,
	},
}

// lockID names a mutex by its anchor so distinct instances of the same
// field share one graph node ("Collector.mu"), which is what lock-ordering
// is about.
type lockID string

type edge struct {
	from, to lockID
	pos      ast.Node // acquisition site creating the edge
}

type funcInfo struct {
	decl *ast.FuncDecl
	// acquires is the set of locks the function may take, directly or
	// through same-package calls (fixpoint).
	acquires map[lockID]bool
	// callees lists same-package functions invoked.
	callees []*funcInfo
}

func run(pass *analysis.Pass) error {
	// Index package functions for call summaries.
	funcs := map[types.Object]*funcInfo{}
	var order []*funcInfo
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			fi := &funcInfo{decl: fd, acquires: map[lockID]bool{}}
			funcs[obj] = fi
			order = append(order, fi)
		}
	}

	// Pass 1: direct acquisitions and callee lists. Iterate the declaration
	// order slice, not the map: report order must be deterministic (this
	// package must hold itself to detflow's map-order rule).
	for _, fi := range order {
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, kind := lockOp(pass, call); id != "" && (kind == opLock || kind == opRLock) {
				fi.acquires[id] = true
			}
			if callee := calleeObj(pass, call); callee != nil {
				if cf, ok := funcs[callee]; ok {
					fi.callees = append(fi.callees, cf)
				}
			}
			return true
		})
	}

	// Fixpoint: propagate callee acquisitions.
	for changed := true; changed; {
		changed = false
		for _, fi := range order {
			for _, cf := range fi.callees {
				for id := range cf.acquires {
					if !fi.acquires[id] {
						fi.acquires[id] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: walk each function with a held-set, collecting order edges
	// and dispatch-while-holding diagnostics.
	var edges []edge
	for _, fi := range order {
		edges = append(edges, walkHeld(pass, funcs, fi)...)
	}

	reportCycles(pass, edges)
	return nil
}

type opKind int

const (
	opNone opKind = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

// lockOp classifies call as a mutex operation and returns the lock's ID.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (lockID, opKind) {
	recv, recvT, name, ok := astutil.MethodCall(pass.Info, call)
	if !ok {
		return "", opNone
	}
	var kind opKind
	switch name {
	case "Lock":
		kind = opLock
	case "RLock":
		kind = opRLock
	case "Unlock":
		kind = opUnlock
	case "RUnlock":
		kind = opRUnlock
	default:
		return "", opNone
	}
	if !astutil.NamedIs(recvT, "sync", "Mutex") && !astutil.NamedIs(recvT, "sync", "RWMutex") {
		return "", opNone
	}
	return anchor(pass, recv), kind
}

// anchor names the mutex expression: "Type.field" when the mutex is reached
// through a selector whose base has a named type, "pkg.name" for
// package-level variables, else the printed leaf.
func anchor(pass *analysis.Pass, e ast.Expr) lockID {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if base := pass.TypeOf(sel.X); base != nil {
			if n := astutil.Named(base); n != nil {
				return lockID(n.Obj().Name() + "." + sel.Sel.Name)
			}
		}
		return lockID("?." + sel.Sel.Name)
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := astutil.Obj(pass.Info, id); obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return lockID(obj.Pkg().Name() + "." + id.Name)
		}
		return lockID(id.Name)
	}
	return lockID(fmt.Sprintf("expr@%d", e.Pos()))
}

type held struct {
	id     lockID
	rlock  bool
	defers bool // released only by a deferred unlock (held to return)
}

// walkHeld runs a linear, order-sensitive scan of fi's body, maintaining
// the held stack. Control flow is flattened: branches are scanned in source
// order with the held set shared, which over-approximates "may be held" —
// exactly the right polarity for a gate.
func walkHeld(pass *analysis.Pass, funcs map[types.Object]*funcInfo, fi *funcInfo) []edge {
	var (
		edges []edge
		hs    []held
	)
	release := func(id lockID) {
		for i := len(hs) - 1; i >= 0; i-- {
			if hs[i].id == id && !hs[i].defers {
				hs = append(hs[:i], hs[i+1:]...)
				return
			}
		}
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// A closure body runs later on an unknown goroutine; its own
			// acquisitions are scanned when the literal is a callee of a
			// dispatch, and a fresh conservative scan here would conflate
			// scopes. Skip.
			return false
		case *ast.DeferStmt:
			if id, kind := lockOp(pass, v.Call); id != "" && (kind == opUnlock || kind == opRUnlock) {
				for i := len(hs) - 1; i >= 0; i-- {
					if hs[i].id == id {
						hs[i].defers = true
						break
					}
				}
			}
			return false
		case *ast.CallExpr:
			if id, kind := lockOp(pass, v); id != "" {
				switch kind {
				case opLock, opRLock:
					for _, h := range hs {
						if h.id != id {
							edges = append(edges, edge{from: h.id, to: id, pos: v})
						} else if kind == opLock && !h.rlock {
							pass.Reportf(v.Pos(), "lock %s acquired while already held (self-deadlock on this path)", id)
						}
					}
					hs = append(hs, held{id: id, rlock: kind == opRLock})
				case opUnlock, opRUnlock:
					release(id)
				}
				return true
			}
			// Dispatch while holding?
			if len(hs) > 0 {
				if _, recvT, name, ok := astutil.MethodCall(pass.Info, v); ok {
					if n := astutil.Named(recvT); n != nil && n.Obj().Pkg() != nil {
						key := [2]string{n.Obj().Pkg().Path(), n.Obj().Name()}
						if dispatchMethods[key][name] {
							pass.Reportf(v.Pos(),
								"mutex %s held across %s.%s: the callback runs on pool/shard context and re-entry deadlocks (release before dispatching)",
								hs[len(hs)-1].id, n.Obj().Name(), name)
						}
					}
				}
			}
			// Same-package call: edges to everything the callee acquires,
			// in sorted order so report positions are stable run to run.
			if callee := calleeObj(pass, v); callee != nil {
				if cf, ok := funcs[callee]; ok {
					ids := make([]lockID, 0, len(cf.acquires))
					for id := range cf.acquires {
						ids = append(ids, id)
					}
					sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
					for _, h := range hs {
						for _, id := range ids {
							if id != h.id {
								edges = append(edges, edge{from: h.id, to: id, pos: v})
							}
						}
					}
				}
			}
		}
		return true
	})
	return edges
}

// calleeObj resolves the static callee of call when it is a same-package
// function or method declaration.
func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		if s, ok := pass.Info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			return s.Obj()
		}
		return pass.Info.Uses[fun.Sel]
	}
	return nil
}

// reportCycles finds cycles in the acquired-while-holding graph and reports
// each once, at the edge completing the cycle.
func reportCycles(pass *analysis.Pass, edges []edge) {
	adj := map[lockID]map[lockID]edge{}
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = map[lockID]edge{}
		}
		if _, dup := adj[e.from][e.to]; !dup {
			adj[e.from][e.to] = e
		}
	}
	// For determinism, iterate nodes sorted.
	var nodes []lockID
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	seen := map[string]bool{}
	for _, start := range nodes {
		var path []lockID
		var dfs func(lockID) bool
		onPath := map[lockID]bool{}
		dfs = func(n lockID) bool {
			path = append(path, n)
			onPath[n] = true
			var outs []lockID
			for to := range adj[n] {
				outs = append(outs, to)
			}
			sort.Slice(outs, func(i, j int) bool { return outs[i] < outs[j] })
			for _, to := range outs {
				if to == start && len(path) > 1 {
					key := cycleKey(path)
					if !seen[key] {
						seen[key] = true
						e := adj[n][start]
						var names []string
						for _, p := range path {
							names = append(names, string(p))
						}
						names = append(names, string(start))
						pass.Reportf(e.pos.Pos(),
							"lock-order cycle: %s — acquiring in opposite orders on different paths deadlocks under contention",
							strings.Join(names, " -> "))
					}
					continue
				}
				if !onPath[to] && to > start { // canonical: smallest node first
					if dfs(to) {
						return true
					}
				}
			}
			path = path[:len(path)-1]
			onPath[n] = false
			return false
		}
		dfs(start)
	}
}

// cycleKey canonicalizes a cycle path for dedup.
func cycleKey(path []lockID) string {
	var parts []string
	for _, p := range path {
		parts = append(parts, string(p))
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}
