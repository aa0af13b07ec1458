// Package maporder flags map iteration whose order can leak into
// deterministic output.
//
// Go randomizes map iteration order on purpose, so any loop that folds a
// map into an ordered artifact — a slice that is never sorted, a stream
// written to an io.Writer, bytes fed to a hash — produces different output
// on every run. That is precisely the bug class that would silently break
// chaos.Digest (seed-replayable scenario fingerprints) and
// metrics.ShardedCollector merging (byte-identical reports at any
// parallelism), and no fixed-seed test is guaranteed to catch it because
// the nondeterminism lives in the runtime, not the seed.
//
// The analyzer flags a `range` over a map when the loop body:
//
//   - appends to a slice declared outside the loop, unless the same slice
//     is passed to a sort (sort.* or slices.Sort*) later in the enclosing
//     function — the canonical collect-then-sort pattern passes clean;
//   - writes to an io.Writer or hash.Hash (method calls like Write and
//     WriteString, or fmt.Fprint*/io.WriteString/binary.Write with the
//     loop in scope) — a stream cannot be reordered after the fact;
//   - sends on a channel — consumers observe map order.
//
// Commutative folds (sums, counters, map-to-map copies, deletes) are not
// flagged. Intentional order-insensitive accumulation (e.g. feeding an
// order-independent set) carries //nglint:allow maporder <reason>.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"bitcoinng/internal/lint/analysis"
	"bitcoinng/internal/lint/astutil"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map whose body appends to a slice (without a " +
		"later sort), writes to an io.Writer/hash, or sends on a channel: " +
		"map order would leak into deterministic output",
	Run: run,
}

// streamFuncs are package functions that write a stream through one of
// their arguments.
var streamFuncs = map[string]map[string]bool{
	"fmt":             {"Fprint": true, "Fprintf": true, "Fprintln": true},
	"io":              {"WriteString": true, "Copy": true},
	"encoding/binary": {"Write": true},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Visit every function body so we know the enclosing function of
		// each range statement (needed for the sort-after-loop check).
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			checkFunc(pass, body)
			return true
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, funcBody *ast.BlockStmt) {
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != funcBody {
			// Nested function literals get their own checkFunc visit
			// from run; don't double-report their range statements.
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, funcBody, rng)
		return true
	})
}

func checkMapRange(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	reported := false
	report := func(pos token.Pos, format string, args ...any) {
		if !reported {
			pass.Reportf(pos, format, args...)
			reported = true
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch v := n.(type) {
		case *ast.SendStmt:
			report(v.Pos(), "send on channel inside range over map: the receiver observes randomized map order; iterate sorted keys instead")
		case *ast.AssignStmt:
			if tgt := appendTarget(pass, v); tgt != nil {
				if declaredInside(tgt, rng) {
					return true
				}
				if !sortedAfter(pass, funcBody, rng, tgt) {
					report(v.Pos(),
						"append to %q inside range over map without a later sort: slice order is randomized per run; sort %q (sort.* / slices.Sort*) after the loop or iterate sorted keys",
						tgt.Name(), tgt.Name())
				}
			}
		case *ast.CallExpr:
			if pkg, fn, ok := astutil.PkgFuncCall(pass.Info, v); ok {
				if streamFuncs[pkg][fn] {
					report(v.Pos(), "%s.%s inside range over map writes a stream in randomized map order; iterate sorted keys instead", pkg, fn)
				}
				return true
			}
			if _, recvT, m, ok := astutil.MethodCall(pass.Info, v); ok && astutil.StreamWrite(m, recvT) {
				report(v.Pos(), "%s on an io.Writer inside range over map emits a stream in randomized map order; iterate sorted keys instead", m)
			}
		}
		return true
	})
}

// appendTarget returns the object of x in `x = append(x, ...)` (or := /
// x[i] variants rooted at x), or nil when stmt is not a self-append.
func appendTarget(pass *analysis.Pass, stmt *ast.AssignStmt) types.Object {
	if len(stmt.Rhs) != 1 || len(stmt.Lhs) != 1 {
		return nil
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || astutil.Obj(pass.Info, id) != types.Universe.Lookup("append") {
		return nil
	}
	root := astutil.RootIdent(call.Args[0])
	if root == nil {
		return nil
	}
	return astutil.Obj(pass.Info, root)
}

// declaredInside reports whether obj's declaration lies inside the range
// statement (a loop-local accumulator resets every key, so map order cannot
// accumulate into it across iterations... it still escapes per-iteration,
// but per-iteration contents do not depend on sibling ordering).
func declaredInside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
}

// sortedAfter reports whether obj is passed to a sort call positioned after
// the range loop inside funcBody.
func sortedAfter(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !astutil.SortCall(pass.Info, call) {
			return true
		}
		for _, arg := range call.Args {
			if root := astutil.RootIdent(astutil.Unwrap(pass.Info, arg)); root != nil {
				if astutil.Obj(pass.Info, root) == obj {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
