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

// TestSuiteIsComplete pins the advertised analyzer set, in reporting order,
// and the -list text: one line per analyzer, in the same order.
func TestSuiteIsComplete(t *testing.T) {
	want := []string{"walltime", "detflow", "errflow"}
	if len(nglint.ModuleAnalyzers) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(nglint.ModuleAnalyzers), len(want))
	}
	for i, a := range nglint.ModuleAnalyzers {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
	lines := strings.Split(strings.TrimSuffix(nglint.Doc(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("Doc() has %d lines, want %d:\n%s", len(lines), len(want), nglint.Doc())
	}
	for i, w := range want {
		if name, _, _ := strings.Cut(lines[i], " "); name != w {
			t.Errorf("Doc() line %d names %q, want %q", i, name, w)
		}
	}
}
