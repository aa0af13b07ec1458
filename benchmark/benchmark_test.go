package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: parent
// re-executes os.Executable(), which under go test is this file's binary.
func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asMainEnv = "NGBENCHMARK_AS_MAIN"

// metricName is the contract's shape for a metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testParent(t *testing.T, seconds int) parent {
	t.Helper()
	return parent{seed: 1, seconds: seconds, short: true, traceDir: t.TempDir(), env: []string{asMainEnv + "=1"}}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Median != c.q2 || s.Q3 != c.q3 || s.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want quartiles %v %v %v", c.in, s, c.q1, c.q2, c.q3)
		}
	}
	if got := summarize([]float64{10, 20, 30, 40, 50}).spread(); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := (summary{}).spread(); got != 0 {
		t.Errorf("spread of an empty summary = %v, want 0", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func TestMetricTablesAgreeWithBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, the child counts are sized for %d", f.RunSeconds, nominalSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program has %q: %q", i, f.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	seen := map[string]bool{}
	compare := func(kind string, file []fileMetric, table []metricDef, bounded bool) {
		if len(file) != len(table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(file), len(table))
		}
		for i, d := range table {
			m := file[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the program has %s [%s, %s]",
					kind, i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
			}
			if !metricName.MatchString(d.Name) {
				t.Errorf("%s: name %q is outside the contract's alphabet", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q is used twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: direction %q", d.Name, d.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound):
				t.Errorf("%s: bound in BENCHMARK.json %v, in the program %v", d.Name, m.Bound, d.Bound)
			case bounded && (d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", d.Name)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd, true)
	compare("per_layer", f.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	for _, d := range endToEnd {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

// TestWorkloadsPassTheirChecks runs each workload once at -short size in
// this process and requires exactly the table's end-to-end metrics.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		res, err := runChild(childSpec{Workload: w.name, Seed: 1, Short: true, Check: true}, readHost())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, problem := range res.Problems {
			t.Errorf("%s: %s", w.name, problem)
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d; the reference workloads are sized so nothing fails", w.name, res.Attempted, res.Failed)
		}
		if len(res.E2E) != len(endToEnd) {
			t.Errorf("%s printed %d end-to-end metrics, the table has %d", w.name, len(res.E2E), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := res.E2E[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive finite number", w.name, d.Name, v)
			}
		}
		known := map[string]bool{}
		for _, d := range perLayer {
			known[d.Name] = true
		}
		for name := range res.Layer {
			if !known[name] {
				t.Errorf("%s printed per-layer metric %s, which the table does not have", w.name, name)
			}
		}
	}
}

// TestTimedAndTracedRuns drives the contract's two modes through real child
// processes on the smallest workload.
func TestTimedAndTracedRuns(t *testing.T) {
	w, _ := findWorkload("livesync3")
	p := testParent(t, 1) // the floor of two timed children
	timed, err := p.timedRun(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(timed.problems) > 0 {
		t.Errorf("timed run: %v", timed.problems)
	}
	for _, d := range endToEnd {
		if s := timed.metrics[d.Name]; s.N != 2 || !(s.Median > 0) {
			t.Errorf("timed %s = %+v, want a positive median over 2 children", d.Name, s)
		}
	}
	line, err := json.Marshal(timed.contractLine())
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatal(err)
	}
	if !parsed.Correct || parsed.Attempted < 1 || len(parsed.Metrics) != len(endToEnd) {
		t.Errorf("contract line %s", line)
	}

	traced, err := p.tracedRun(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.problems) > 0 {
		t.Errorf("traced run: %v", traced.problems)
	}
	var shares float64
	for _, d := range perLayer {
		v := traced.metrics[d.Name].Median
		if strings.HasPrefix(d.Name, "share.") {
			shares += v
		}
		// Unit costs are workload-independent and must all have been measured.
		if strings.Contains(d.Name, "_us") || strings.Contains(d.Name, "_ns") || strings.HasSuffix(d.Name, "_mb_s") || strings.HasSuffix(d.Name, "_ms") {
			if !(v > 0) {
				t.Errorf("unit cost %s = %v, want > 0", d.Name, v)
			}
		}
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("share.* sum to %v, want 1", shares)
	}
	if _, err := os.Stat(filepath.Join(p.traceDir, "trace-livesync3.json")); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

// TestDigestCheckCatchesADifferentSeed gives the comparison a child that ran
// another seed; the run must be reported incorrect.
func TestDigestCheckCatchesADifferentSeed(t *testing.T) {
	run := func(seed int64) *childResult {
		res, err := runChild(childSpec{Workload: "blast16", Seed: seed, Short: true}, readHost())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, again, b := run(11), run(11), run(12)
	var r runResult
	r.sameDigest("repeat", a, again)
	if len(r.problems) != 0 {
		t.Fatalf("same seed, different digests: %v", r.problems)
	}
	r.sameDigest("other seed", a, b)
	if len(r.problems) != 1 || !strings.Contains(r.problems[0], "digest differs") {
		t.Fatalf("different seeds went unnoticed: %v", r.problems)
	}
}

// TestFailShareUnderShedLoad bounds blast16's mempools far below the offered
// load, so admission refuses most of it; every refusal is a failed operation.
func TestFailShareUnderShedLoad(t *testing.T) {
	res, err := runChild(childSpec{Workload: "blast16", Seed: 21, Short: true, MempoolTxs: 40}, readHost())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed <= 0 || res.Failed >= res.Attempted {
		t.Fatalf("attempted %d, failed %d: a 40-transaction pool under 40 tx/s must shed some load and confirm some", res.Attempted, res.Failed)
	}
	want := float64(res.Attempted-res.Failed) / float64(res.Attempted)
	if got := res.E2E["ok_share"]; got != want {
		t.Errorf("ok_share = %v, want (attempted-failed)/attempted = %v", got, want)
	}
	if confirmed := res.E2E["confirmed_tps"]; !(confirmed > 0) {
		t.Errorf("confirmed_tps = %v", confirmed)
	}
	for _, problem := range res.Problems {
		t.Errorf("shedding load is not a correctness failure, got: %s", problem)
	}
}
