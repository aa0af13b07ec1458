// Package nglint orchestrates the determinism & protocol-safety analyzer
// suite: it loads the module's packages once, runs every analyzer over the
// whole load, and applies the //nglint:allow annotation convention.
//
// # Annotation convention
//
// An intentional violation carries a justification comment:
//
//	startWall := time.Now() //nglint:allow walltime operator-facing stderr timing
//
// or, on its own line, immediately above the site:
//
//	//nglint:allow walltime operator-facing stderr timing
//	startWall := time.Now()
//
// The annotation names the analyzer it silences and must carry a non-empty
// reason; an empty reason is itself a finding, as is an annotation that
// silences nothing (stale allows rot into lies) or names an unknown
// analyzer. One annotation covers one source line for one analyzer.
package nglint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"bitcoinng/internal/lint/analysis"
	"bitcoinng/internal/lint/detflow"
	"bitcoinng/internal/lint/errflow"
	"bitcoinng/internal/lint/load"
	"bitcoinng/internal/lint/walltime"
)

// ModuleAnalyzers is the suite, in reporting order. Each runs once over the
// whole load, and they share the //nglint:allow convention — an allow on the
// reported line suppresses the finding no matter which package an
// interprocedural flow ends in.
var ModuleAnalyzers = []*analysis.ModuleAnalyzer{
	walltime.Analyzer,
	detflow.Analyzer,
	errflow.Analyzer,
}

// Finding is one reportable lint result after allow filtering.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Run lints every package of the module rooted at moduleDir and returns the
// findings sorted by position.
func Run(modulePath, moduleDir string) ([]Finding, error) {
	l := load.New(modulePath, moduleDir)
	pkgs, err := l.LoadModule()
	if err != nil {
		return nil, err
	}
	return RunModule(l, pkgs)
}

// RunModule applies the suite to the loaded packages with allow filtering
// across the whole set: a finding can land in any package, so suppressions
// and staleness are resolved against every file at once.
func RunModule(l *load.Loader, pkgs []*load.Package) ([]Finding, error) {
	type rawDiag struct {
		analyzer string
		d        analysis.Diagnostic
	}
	var diags []rawDiag
	var allows []*allow
	for _, pkg := range pkgs {
		allows = append(allows, collectAllows(l.Fset(), pkg)...)
	}
	for _, a := range ModuleAnalyzers {
		pass := &analysis.ModulePass{
			Analyzer: a,
			Fset:     l.Fset(),
			Pkgs:     pkgs,
			Report: func(d analysis.Diagnostic) {
				diags = append(diags, rawDiag{analyzer: a.Name, d: d})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	var out []Finding
	for _, rd := range diags {
		pos := l.Fset().Position(rd.d.Pos)
		if a := matchAllow(allows, rd.analyzer, pos); a != nil {
			a.used = true
			if a.reason != "" {
				continue // justified: suppressed
			}
			// Empty reason: the allow is invalid, keep the finding (the
			// empty-reason error is emitted below).
		}
		out = append(out, Finding{Pos: pos, Analyzer: rd.analyzer, Message: rd.d.Message})
	}
	out = append(out, allowHygiene(allows)...)
	sortFindings(out)
	return out, nil
}

// allowHygiene turns defective annotations into findings: unknown analyzer
// names, missing reasons, and allows that no longer suppress anything.
func allowHygiene(allows []*allow) []Finding {
	var out []Finding
	for _, a := range allows {
		switch {
		case !a.known:
			out = append(out, Finding{Pos: a.pos, Analyzer: "nglint",
				Message: fmt.Sprintf("//nglint:allow names unknown analyzer %q", a.rule)})
		case a.reason == "":
			out = append(out, Finding{Pos: a.pos, Analyzer: "nglint",
				Message: fmt.Sprintf("//nglint:allow %s without a reason: every suppression must say why the wall-clock/rand/order exception is sound", a.rule)})
		case !a.used:
			out = append(out, Finding{Pos: a.pos, Analyzer: "nglint",
				Message: fmt.Sprintf("stale //nglint:allow %s: no %s finding on the annotated line — delete it so suppressions stay honest", a.rule, a.rule)})
		}
	}
	return out
}

type allow struct {
	rule   string
	reason string
	known  bool
	pos    token.Position // of the comment
	file   string
	target int // source line the allow covers
	used   bool
}

var allowRe = regexp.MustCompile(`^//nglint:allow\s+(\S+)[ \t]*(.*)$`)

// collectAllows parses //nglint:allow comments. A trailing comment (code
// before it on the line) covers its own line; a standalone comment covers
// the next line.
func collectAllows(fset *token.FileSet, pkg *load.Package) []*allow {
	known := map[string]bool{}
	for _, a := range ModuleAnalyzers {
		known[a.Name] = true
	}
	var out []*allow
	for i, f := range pkg.Files {
		src := pkg.Src[pkg.Filenames[i]]
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				target := pos.Line
				if standalone(src, pos) {
					target = pos.Line + 1
				}
				out = append(out, &allow{
					rule:   m[1],
					reason: strings.TrimSpace(m[2]),
					known:  known[m[1]],
					pos:    pos,
					file:   pos.Filename,
					target: target,
				})
			}
		}
	}
	return out
}

// standalone reports whether only whitespace precedes the comment on its
// line.
func standalone(src []byte, pos token.Position) bool {
	off := pos.Offset
	for off > 0 && src[off-1] != '\n' {
		ch := src[off-1]
		if ch != ' ' && ch != '\t' {
			return false
		}
		off--
	}
	return true
}

func matchAllow(allows []*allow, analyzer string, pos token.Position) *allow {
	for _, a := range allows {
		if a.known && a.rule == analyzer && a.file == pos.Filename && a.target == pos.Line {
			return a
		}
	}
	return nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Doc returns the -list text.
func Doc() string {
	var b strings.Builder
	for _, a := range ModuleAnalyzers {
		fmt.Fprintf(&b, "%-11s %s\n", a.Name, a.Doc)
	}
	return b.String()
}
