package invariant

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDefaultsCallsEveryConstructor: a harness that asks for "all
// invariants" gets Defaults, so an exported constructor of an Invariant
// that Defaults does not call is a check no scenario runs. The package's
// own source is the universe: every exported function returning Invariant
// must be called in Defaults' body.
func TestDefaultsCallsEveryConstructor(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	constructors := map[string]bool{}
	var defaults *ast.FuncDecl
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			if fn.Name.Name == "Defaults" {
				defaults = fn
			}
			if res := fn.Type.Results; res != nil && len(res.List) == 1 {
				if id, ok := res.List[0].Type.(*ast.Ident); ok && id.Name == "Invariant" {
					constructors[fn.Name.Name] = true
				}
			}
		}
	}
	if defaults == nil || len(constructors) == 0 {
		t.Fatalf("found Defaults %v and %d constructors: the catalogue has moved", defaults != nil, len(constructors))
	}
	ast.Inspect(defaults.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				delete(constructors, id.Name)
			}
		}
		return true
	})
	var missing []string
	for name := range constructors {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("Defaults does not call the exported constructor %s", name)
	}
}
