package nglint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitcoinng/internal/lint/linttest"
	"bitcoinng/internal/lint/load"
	"bitcoinng/internal/lint/nglint"
)

func runFixture(t *testing.T, name string) []nglint.Finding {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	l := load.New("bitcoinng", linttest.ModuleRoot(t))
	pkg, err := l.LoadDir(name, filepath.Join(cwd, "testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := nglint.RunModule(l, []*load.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestJustifiedAllowsSuppress(t *testing.T) {
	fs := runFixture(t, "allowok")
	for _, f := range fs {
		t.Errorf("unexpected finding despite justified allow: %s", f)
	}
}

func TestDefectiveAllows(t *testing.T) {
	fs := runFixture(t, "allowbad")
	var got []string
	for _, f := range fs {
		got = append(got, f.Analyzer+": "+f.Message)
	}
	joined := strings.Join(got, "\n")

	// The empty-reason annotation is itself an error...
	if !strings.Contains(joined, "without a reason") {
		t.Errorf("missing empty-reason finding in:\n%s", joined)
	}
	// ...and does NOT suppress the underlying walltime finding.
	if !strings.Contains(joined, "walltime: time.Now") {
		t.Errorf("empty-reason allow suppressed the walltime finding:\n%s", joined)
	}
	if !strings.Contains(joined, "stale //nglint:allow walltime") {
		t.Errorf("missing stale-allow finding in:\n%s", joined)
	}
	if !strings.Contains(joined, `unknown analyzer "clockskew"`) {
		t.Errorf("missing unknown-analyzer finding in:\n%s", joined)
	}
	if len(fs) != 4 {
		t.Errorf("want exactly 4 findings (walltime + 3 annotation errors), got %d:\n%s", len(fs), joined)
	}
}

// TestSuiteIsComplete pins the advertised analyzer set.
func TestSuiteIsComplete(t *testing.T) {
	want := []string{"walltime", "locksafe"}
	wantModule := []string{"detflow", "errflow"}
	if len(nglint.Analyzers) != len(want) {
		t.Fatalf("per-package suite has %d analyzers, want %d", len(nglint.Analyzers), len(want))
	}
	for i, a := range nglint.Analyzers {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
	if len(nglint.ModuleAnalyzers) != len(wantModule) {
		t.Fatalf("module suite has %d analyzers, want %d", len(nglint.ModuleAnalyzers), len(wantModule))
	}
	for i, a := range nglint.ModuleAnalyzers {
		if a.Name != wantModule[i] {
			t.Errorf("module analyzer %d = %q, want %q", i, a.Name, wantModule[i])
		}
		if a.Doc == "" {
			t.Errorf("module analyzer %q has no doc", a.Name)
		}
	}
	doc := nglint.Doc()
	for _, w := range append(append([]string{}, want...), wantModule...) {
		if !strings.Contains(doc, w) {
			t.Errorf("Doc() missing %q", w)
		}
	}
}
