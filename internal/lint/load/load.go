// Package load parses and type-checks this module's packages from source,
// with no dependency on golang.org/x/tools/go/packages (the build
// environment is hermetic). Imports are resolved recursively: paths under
// the module prefix map into the repository, everything else maps into
// GOROOT/src (with the GOROOT vendor directory as fallback), and "unsafe"
// maps to types.Unsafe. The module has no third-party requirements, so this
// two-way split is complete.
//
// Test files (_test.go) are deliberately excluded everywhere: the nglint
// contract governs production code, and tests legitimately use wall clocks,
// ad-hoc randomness, and unordered iteration.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully loaded module package, ready for analysis.
type Package struct {
	Path  string // import path, e.g. "bitcoinng/internal/sim"
	Dir   string // absolute directory
	Files []*ast.File
	// Filenames[i] is the absolute path of Files[i].
	Filenames []string
	// Src maps absolute filename to raw source, used by the driver to
	// distinguish trailing from standalone //nglint:allow comments.
	Src   map[string][]byte
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages. It caches by import path, so a
// shared Loader across many target packages type-checks the standard
// library closure once.
type Loader struct {
	ModulePath string // e.g. "bitcoinng"
	ModuleDir  string // absolute repository root

	fset *token.FileSet
	ctx  build.Context
	// cache maps import path to the finished type-checked package.
	cache map[string]*types.Package
	// loading guards against import cycles.
	loading map[string]bool
	// typeErrs accumulates soft type errors per import path.
	typeErrs map[string][]error
}

// New returns a Loader rooted at moduleDir for the given module path.
func New(modulePath, moduleDir string) *Loader {
	ctx := build.Default
	// Pure-Go file sets everywhere: cgo-gated files cannot be
	// type-checked from source, and every package this module touches has
	// a pure-Go fallback.
	ctx.CgoEnabled = false
	return &Loader{
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		fset:       token.NewFileSet(),
		ctx:        ctx,
		cache:      map[string]*types.Package{"unsafe": types.Unsafe},
		loading:    map[string]bool{},
		typeErrs:   map[string][]error{},
	}
}

// Fset returns the shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer by loading path recursively. Only type
// information is retained for dependencies.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	dir, err := l.resolveDir(path)
	if err != nil {
		return nil, err
	}
	_, tpkg, _, err := l.check(path, dir, false)
	return tpkg, err
}

// resolveDir maps an import path to a source directory.
func (l *Loader) resolveDir(path string) (string, error) {
	if path == l.ModulePath {
		return l.ModuleDir, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), nil
	}
	root := l.ctx.GOROOT
	dir := filepath.Join(root, "src", filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir, nil
	}
	vdir := filepath.Join(root, "src", "vendor", filepath.FromSlash(path))
	if st, err := os.Stat(vdir); err == nil && st.IsDir() {
		return vdir, nil
	}
	return "", fmt.Errorf("cannot resolve import %q (not under %s or GOROOT)", path, l.ModulePath)
}

// check parses and type-checks the package in dir under import path. When
// full is true the syntax, sources, and types.Info are returned for
// analysis; otherwise only the types.Package is built.
func (l *Loader) check(path, dir string, full bool) ([]*ast.File, *types.Package, *Package, error) {
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	names := append([]string{}, bp.GoFiles...)
	sort.Strings(names)

	var (
		files     []*ast.File
		filenames []string
		src       map[string][]byte
	)
	mode := parser.SkipObjectResolution
	if full {
		mode |= parser.ParseComments
		src = map[string][]byte{}
	}
	for _, name := range names {
		fn := filepath.Join(dir, name)
		b, err := os.ReadFile(fn)
		if err != nil {
			return nil, nil, nil, err
		}
		f, err := parser.ParseFile(l.fset, fn, b, mode)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
		filenames = append(filenames, fn)
		if full {
			src[fn] = b
		}
	}

	var info *types.Info
	if full {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", l.ctx.GOARCH),
		Error: func(err error) {
			l.typeErrs[path] = append(l.typeErrs[path], err)
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	// Module packages must type-check cleanly: the repository builds, so
	// an error here means the loader resolved something wrong, and
	// analyzers would see broken type info. Standard-library packages are
	// allowed soft errors (assembly-backed declarations and linknames
	// resolve to valid-but-bodyless Go), as long as a usable package came
	// back.
	if errs := l.typeErrs[path]; len(errs) > 0 && strings.HasPrefix(path, l.ModulePath) {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	// A full (analysis) load may re-check a path that was already imported
	// types-only by an earlier target. Keep the first types.Package in the
	// cache so importers stay stable; the fresh one is internally
	// consistent with the new Info, which is all a per-package pass needs.
	if _, ok := l.cache[path]; !ok {
		l.cache[path] = tpkg
	}

	var pkg *Package
	if full {
		pkg = &Package{
			Path:      path,
			Dir:       dir,
			Files:     files,
			Filenames: filenames,
			Src:       src,
			Types:     tpkg,
			Info:      info,
		}
	}
	return files, tpkg, pkg, nil
}

// Load fully loads the package at the given import path for analysis.
func (l *Loader) Load(path string) (*Package, error) {
	dir, err := l.resolveDir(path)
	if err != nil {
		return nil, err
	}
	return l.LoadDir(path, dir)
}

// LoadDir fully loads the package in dir, registering it under the given
// import path. Used by linttest to load fixture directories that live under
// testdata (invisible to the go tool) while still resolving their imports of
// real module packages.
func (l *Loader) LoadDir(path, dir string) (*Package, error) {
	_, _, pkg, err := l.check(path, dir, true)
	return pkg, err
}

// ModulePackages returns the import paths of every package in the module,
// in sorted order: the repository root plus every directory under it with
// buildable Go files, skipping testdata, hidden directories, and this lint
// suite's own fixture trees.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := l.ctx.ImportDir(p, 0); err != nil {
			// No buildable Go files here; keep walking subdirectories.
			return nil //nolint:nilerr
		}
		rel, err := filepath.Rel(l.ModuleDir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
