// Package linttest is the golden-fixture harness for the nglint analyzers,
// a stdlib-only analogue of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture is a directory of Go files under the analyzer's testdata/src
// tree forming one package. The fixture's directory path doubles as its
// import path, so a fixture under testdata/src/bitcoinng/internal/sim/fx is
// analyzed as a deterministic-zone package. Expected diagnostics are
// annotated in the fixture source with analysistest's comment convention:
//
//	for k := range m { // want `append to "out"`
//
// Each `// want` comment carries one or more backquoted or double-quoted
// regular expressions; every expectation must be matched by a diagnostic
// reported on that line, and every diagnostic must be expected. Fixtures
// may import real module packages (e.g. bitcoinng/internal/wire), which the
// loader resolves from the repository.
package linttest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"bitcoinng/internal/lint/analysis"
	"bitcoinng/internal/lint/load"
)

var wantRe = regexp.MustCompile("//[ \t]*want[ \t]+(.*)$")
var argRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// ModuleRoot walks up from the current working directory to the directory
// containing go.mod.
func ModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("linttest: go.mod not found above working directory")
		}
		dir = parent
	}
}

// LoadFixtures loads the named fixture packages (testdata/src/<name>,
// relative to the calling test) in the given order with one shared loader,
// so later fixtures can import earlier ones by their fixture path. Fixture
// paths without the module prefix tolerate soft type errors, which sandbox
// tests rely on to analyze deliberately broken copies of real packages.
func LoadFixtures(t *testing.T, names ...string) (*load.Loader, []*load.Package) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	l := load.New("bitcoinng", ModuleRoot(t))
	var pkgs []*load.Package
	for _, name := range names {
		dir := filepath.Join(cwd, "testdata", "src", filepath.FromSlash(name))
		pkg, err := l.LoadDir(name, dir)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return l, pkgs
}

// RunModule loads the named fixture packages (dependencies first), applies
// the module analyzer to all of them at once, and compares diagnostics
// against the union of the fixtures' want comments.
func RunModule(t *testing.T, a *analysis.ModuleAnalyzer, names ...string) []analysis.Diagnostic {
	t.Helper()
	l, pkgs := LoadFixtures(t, names...)
	var diags []analysis.Diagnostic
	pass := &analysis.ModulePass{
		Analyzer: a,
		Fset:     l.Fset(),
		Pkgs:     pkgs,
		Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	CheckAll(t, l.Fset(), pkgs, diags)
	return diags
}

// CheckAll compares diagnostics against the want comments of several fixture
// packages at once — module analyzers report across package boundaries.
func CheckAll(t *testing.T, fset *token.FileSet, pkgs []*load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	// Gather expectations.
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for i, f := range pkg.Files {
			fn := pkg.Filenames[i]
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					line := fset.Position(c.Pos()).Line
					for _, am := range argRe.FindAllStringSubmatch(m[1], -1) {
						pat := am[1]
						if pat == "" {
							pat = am[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", fn, line, pat, err)
						}
						wants[key{fn, line}] = append(wants[key{fn, line}], re)
					}
				}
			}
		}
	}
	// Match diagnostics.
	matched := map[*regexp.Regexp]bool{}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		found := false
		for _, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched[re] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}
