// Package wiresym statically checks that wire codecs are symmetric.
//
// Every serialized structure in this repository pairs an
// EncodeWire(*wire.Writer) with a DecodeWire(*wire.Reader) (plus free
// encodeX/decodeX helper pairs), and the whole system leans on the
// decode-then-reencode identity: block hashes are computed over serialized
// headers, relays re-emit what they decoded, and the connect cache is
// content-addressed. PR 5's fuzz campaign proved the failure class is real
// — wire.Reader.Bool accepted any nonzero byte, so a relay could re-encode
// different bytes than it received — and that class is statically visible:
// the write sequence and the read sequence must match step for step.
//
// For each Encode/Decode pair in a package the analyzer extracts the
// ordered sequence of codec operations (Writer/Reader method calls on the
// codec parameter, nested EncodeWire/DecodeWire sub-codecs, and helper
// calls that forward the codec parameter), including loop structure, and
// diagnoses the first divergence in operation kind (Writer.VarInt pairs
// with Reader.VarInt or the bounded Reader.Length), loop shape, or — when
// both sides name one — target field.
//
// As a companion check, any method on a type named Reader in a package
// named wire that yields a bool must reject non-canonical input (reference
// ErrNonCanonical): a bool has exactly two valid encodings, and accepting
// more silently breaks the reencode identity (the PR-5 bug).
package wiresym

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"bitcoinng/internal/lint/analysis"
	"bitcoinng/internal/lint/astutil"
)

// Analyzer is the wiresym check.
var Analyzer = &analysis.Analyzer{
	Name: "wiresym",
	Doc: "checks EncodeWire/DecodeWire (and encodeX/decodeX helper) pairs " +
		"write and read the same codec sequence in the same order, and " +
		"that wire.Reader bool decoders reject non-canonical bytes",
	Run: run,
}

// writerCodecs / readerCodecs are the codec entry points; values give the
// abstract kind used for matching.
var writerCodecs = map[string]string{
	"Uint8": "u8", "Bool": "bool", "Uint16": "u16", "Uint32": "u32",
	"Uint64": "u64", "Int64": "i64", "VarInt": "varint", "Bytes32": "b32",
	"VarBytes": "varbytes", "Raw": "raw", "Embed": "sub", "VarEncode": "varcodec",
}

var readerCodecs = map[string]string{
	"Uint8": "u8", "Bool": "bool", "Uint16": "u16", "Uint32": "u32",
	"Uint64": "u64", "Int64": "i64", "VarInt": "varint", "Length": "varint",
	"Count": "varint", "Bytes32": "b32", "VarBytes": "varbytes", "Raw": "raw",
	"VarDecode": "varcodec",
}

// step is one element of a codec sequence.
type step struct {
	kind  string // codec kind, "sub", "helper:<name>", "loop{", "}loop"
	field string // best-effort field name, "" when unknown
	pos   token.Pos
}

// side describes one half of a codec pair.
type side struct {
	fn    *ast.FuncDecl
	steps []step
}

func run(pass *analysis.Pass) error {
	encs := map[string]*side{} // pair key -> encode side
	decs := map[string]*side{} // pair key -> decode side

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if param, encode, key := codecFunc(pass, fd); param != nil {
				s := &side{fn: fd, steps: extract(pass, fd.Body, param, encode)}
				if encode {
					encs[key] = s
				} else {
					decs[key] = s
				}
			}
			checkCanonicalBool(pass, fd)
		}
	}

	var keys []string
	for k := range encs {
		if decs[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		compare(pass, k, encs[k], decs[k])
	}
	return nil
}

// codecFunc classifies fd as one half of a codec pair: an
// EncodeWire/DecodeWire method (key = receiver type name) or a free
// function named [Ee]ncodeX/[Dd]ecodeX whose parameters include the codec
// type (key = "helper " + normalized X). Returns the codec parameter
// object.
func codecFunc(pass *analysis.Pass, fd *ast.FuncDecl) (param types.Object, encode bool, key string) {
	findParam := func(pkgName, typeName string) types.Object {
		for _, fld := range fd.Type.Params.List {
			t := pass.TypeOf(fld.Type)
			if n := astutil.Named(t); n != nil && n.Obj().Pkg() != nil &&
				n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName {
				if len(fld.Names) == 1 {
					return pass.Info.Defs[fld.Names[0]]
				}
			}
		}
		return nil
	}

	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		switch name {
		case "EncodeWire":
			if p := findParam("wire", "Writer"); p != nil {
				return p, true, "method " + recvTypeName(pass, fd)
			}
		case "DecodeWire":
			if p := findParam("wire", "Reader"); p != nil {
				return p, false, "method " + recvTypeName(pass, fd)
			}
		}
		return nil, false, ""
	}
	low := strings.ToLower(name)
	if rest, ok := cutAny(low, "encode", "write"); ok && rest != "" {
		if p := findParam("wire", "Writer"); p != nil {
			return p, true, "helper " + rest
		}
	}
	if rest, ok := cutAny(low, "decode", "read"); ok && rest != "" {
		if p := findParam("wire", "Reader"); p != nil {
			return p, false, "helper " + rest
		}
	}
	return nil, false, ""
}

func cutAny(s string, prefixes ...string) (string, bool) {
	for _, p := range prefixes {
		if rest, ok := strings.CutPrefix(s, p); ok {
			return rest, true
		}
	}
	return "", false
}

func recvTypeName(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if n := astutil.Named(pass.TypeOf(fd.Recv.List[0].Type)); n != nil {
		return n.Obj().Name()
	}
	return "?"
}

// extract walks body in source order, flattening statements into the codec
// step sequence. Loops contribute loop{ ... }loop groups so a list encoded
// element-wise must be decoded element-wise.
func extract(pass *analysis.Pass, body *ast.BlockStmt, param types.Object, encode bool) []step {
	var steps []step
	var walkStmt func(ast.Stmt)

	usesParam := func(e ast.Expr) bool {
		id, ok := astutil.Unwrap(pass.Info, e).(*ast.Ident)
		return ok && astutil.Obj(pass.Info, id) == param
	}

	// stepOf classifies a call; field is filled by the caller for decode
	// assignments.
	stepOf := func(call *ast.CallExpr) (step, bool) {
		if recv, _, m, ok := astutil.MethodCall(pass.Info, call); ok {
			if usesParam(recv) {
				table := writerCodecs
				if !encode {
					table = readerCodecs
				}
				if kind, ok := table[m]; ok {
					st := step{kind: kind, pos: call.Pos()}
					if encode && len(call.Args) > 0 {
						st.field = astutil.FieldName(pass.Info, call.Args[0])
					}
					return st, true
				}
				return step{}, false // bookkeeping (Err, Len, ...)
			}
			// Sub-codec: x.EncodeWire(w) / x.DecodeWire(r).
			if (m == "EncodeWire" || m == "DecodeWire") && len(call.Args) == 1 && usesParam(call.Args[0]) {
				return step{kind: "sub", field: astutil.FieldName(pass.Info, recv), pos: call.Pos()}, true
			}
			return step{}, false
		}
		// Helper call forwarding the codec param.
		var fname string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			fname = fun.Name
		case *ast.SelectorExpr:
			fname = fun.Sel.Name
		default:
			return step{}, false
		}
		forwards := false
		var firstOther ast.Expr
		for _, a := range call.Args {
			if usesParam(a) {
				forwards = true
			} else if firstOther == nil {
				firstOther = a
			}
		}
		if !forwards {
			return step{}, false
		}
		norm := strings.ToLower(fname)
		for _, p := range []string{"encode", "decode", "write", "read"} {
			if rest, ok := strings.CutPrefix(norm, p); ok && rest != "" {
				norm = rest
				break
			}
		}
		st := step{kind: "helper:" + norm, pos: call.Pos()}
		if firstOther != nil {
			st.field = astutil.FieldName(pass.Info, firstOther)
		}
		return st, true
	}

	// walkExpr collects codec calls nested in an expression, in source
	// order, attaching fieldHint to the outermost decode step.
	var walkExpr func(e ast.Expr, fieldHint string)
	walkExpr = func(e ast.Expr, fieldHint string) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if st, ok := stepOf(call); ok {
				if !encode && st.field == "" {
					st.field = fieldHint
				}
				steps = append(steps, st)
				fieldHint = "" // only the first step gets the hint
				return false   // don't descend into matched call's args twice
			}
			return true
		})
	}

	walkStmt = func(s ast.Stmt) {
		switch v := s.(type) {
		case nil:
		case *ast.BlockStmt:
			for _, st := range v.List {
				walkStmt(st)
			}
		case *ast.ExprStmt:
			walkExpr(v.X, "")
		case *ast.AssignStmt:
			hint := ""
			if len(v.Lhs) == 1 {
				hint = astutil.FieldName(pass.Info, v.Lhs[0])
			}
			for _, rhs := range v.Rhs {
				walkExpr(rhs, hint)
			}
		case *ast.DeclStmt:
			if gd, ok := v.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						hint := ""
						if len(vs.Names) == 1 {
							hint = vs.Names[0].Name
						}
						for _, val := range vs.Values {
							walkExpr(val, hint)
						}
					}
				}
			}
		case *ast.ForStmt:
			mark := len(steps)
			walkStmt(v.Init)
			walkExpr(v.Cond, "")
			walkStmt(v.Body)
			wrapLoop(&steps, mark, v.Pos())
		case *ast.RangeStmt:
			mark := len(steps)
			walkExpr(v.X, "")
			walkStmt(v.Body)
			wrapLoop(&steps, mark, v.Pos())
		case *ast.IfStmt:
			walkStmt(v.Init)
			condMark := len(steps)
			walkExpr(v.Cond, "")
			condSteps := len(steps) - condMark
			thenMark := len(steps)
			walkStmt(v.Body)
			thenSteps := append([]step{}, steps[thenMark:]...)
			steps = steps[:thenMark]
			elseMark := len(steps)
			walkStmt(v.Else)
			elseSteps := append([]step{}, steps[elseMark:]...)
			steps = steps[:elseMark]
			switch {
			case len(elseSteps) == 1 && len(thenSteps) > 0 && thenSteps[0].kind == elseSteps[0].kind:
				// Discriminated optional, encode side: both branches write
				// the discriminator (`if ok { w.Bool(true); X... } else {
				// w.Bool(false) }`). Hoist it, group the payload.
				steps = append(steps, thenSteps[0])
				wrapOpt(&steps, thenSteps[1:], v.Pos())
			case condSteps > 0 && len(elseSteps) == 0:
				// Discriminated optional, decode side: the condition reads
				// the discriminator (`if r.Bool() { X... }`).
				wrapOpt(&steps, thenSteps, v.Pos())
			default:
				steps = append(steps, thenSteps...)
				steps = append(steps, elseSteps...)
			}
		case *ast.SwitchStmt:
			walkStmt(v.Init)
			walkExpr(v.Tag, "")
			walkStmt(v.Body)
		case *ast.CaseClause:
			for _, st := range v.Body {
				walkStmt(st)
			}
		case *ast.ReturnStmt:
			for _, e := range v.Results {
				walkExpr(e, "")
			}
		}
	}
	walkStmt(body)
	return steps
}

// wrapOpt appends inner wrapped in optional-group markers (no markers when
// inner is empty).
func wrapOpt(steps *[]step, inner []step, pos token.Pos) {
	if len(inner) == 0 {
		return
	}
	*steps = append(*steps, step{kind: "opt{", pos: pos})
	*steps = append(*steps, inner...)
	*steps = append(*steps, step{kind: "}opt", pos: pos})
}

// wrapLoop wraps steps[mark:] in loop markers if the loop body produced any
// codec steps.
func wrapLoop(steps *[]step, mark int, pos token.Pos) {
	if len(*steps) == mark {
		return
	}
	inner := append([]step{}, (*steps)[mark:]...)
	*steps = (*steps)[:mark]
	*steps = append(*steps, step{kind: "loop{", pos: pos})
	*steps = append(*steps, inner...)
	*steps = append(*steps, step{kind: "}loop", pos: pos})
}

// kindsMatch reports whether an encode step kind pairs with a decode one.
func kindsMatch(enc, dec string) bool {
	return enc == dec // tables already map Writer.VarInt/Reader.Length to "varint"
}

func describe(s step) string {
	k := s.kind
	switch k {
	case "sub":
		k = "sub-codec"
	case "loop{":
		return "loop start"
	case "}loop":
		return "loop end"
	case "opt{":
		return "optional group start"
	case "}opt":
		return "optional group end"
	}
	if s.field != "" {
		return k + "(" + s.field + ")"
	}
	return k
}

func compare(pass *analysis.Pass, key string, enc, dec *side) {
	n := len(enc.steps)
	if len(dec.steps) < n {
		n = len(dec.steps)
	}
	for i := 0; i < n; i++ {
		e, d := enc.steps[i], dec.steps[i]
		if !kindsMatch(e.kind, d.kind) {
			pass.Reportf(d.pos,
				"wire asymmetry in %s: encode step %d is %s but decode step %d is %s — decode-reencode identity breaks",
				key, i+1, describe(e), i+1, describe(d))
			return
		}
		if e.field != "" && d.field != "" && !strings.EqualFold(e.field, d.field) {
			pass.Reportf(d.pos,
				"wire field-order mismatch in %s: step %d encodes %s but decodes into %s",
				key, i+1, describe(e), describe(d))
			return
		}
	}
	if len(enc.steps) != len(dec.steps) {
		long, short, where := enc, dec, dec.fn.Name.Pos()
		dir := "decode reads fewer steps than encode writes"
		if len(dec.steps) > len(enc.steps) {
			long, short = dec, enc
			dir = "decode reads more steps than encode writes"
		}
		_ = short
		pass.Reportf(where,
			"wire asymmetry in %s: %s (%d vs %d; first unmatched: %s)",
			key, dir, len(enc.steps), len(dec.steps), describe(long.steps[n]))
	}
}

// checkCanonicalBool enforces the PR-5 lesson inside codec packages: a
// Reader method producing a bool must reject non-canonical bytes.
func checkCanonicalBool(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
		return
	}
	if pass.Pkg.Name() != "wire" {
		return
	}
	n := astutil.Named(pass.TypeOf(fd.Recv.List[0].Type))
	if n == nil || n.Obj().Name() != "Reader" {
		return
	}
	res := fd.Type.Results
	if res == nil || len(res.List) != 1 {
		return
	}
	if t := pass.TypeOf(res.List[0].Type); t == nil || !types.Identical(t, types.Typ[types.Bool]) {
		return
	}
	ok := false
	ast.Inspect(fd.Body, func(nd ast.Node) bool {
		if id, isID := nd.(*ast.Ident); isID && strings.Contains(id.Name, "Canonical") {
			ok = true
		}
		return !ok
	})
	if !ok {
		pass.Reportf(fd.Name.Pos(),
			"Reader.%s decodes a bool without rejecting non-canonical bytes (no ErrNonCanonical path): any-nonzero-is-true breaks the decode-reencode identity (the FuzzBlockWire PR-5 bug)",
			fd.Name.Name)
	}
}
