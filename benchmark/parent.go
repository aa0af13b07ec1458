package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"bitcoinng/internal/sim"
)

// nominalSeconds is the run length every workload's child count is sized
// for (BENCHMARK.json's run_seconds).
const nominalSeconds = 20

// childrenFor scales a workload's timed children with the requested run
// length. The count depends on the arguments alone, never on how fast the
// host happens to be, so a run's virtual-time medians are a pure function of
// (workload, seed, seconds).
func childrenFor(w workload, seconds int) int {
	n := int(math.Round(float64(w.children) * float64(seconds) / nominalSeconds))
	if n < 2 {
		n = 2
	}
	return n
}

// parent runs children of its own binary, one at a time.
type parent struct {
	seed    int64
	seconds int
	short   bool
	// traceDir is where the traced child writes trace-<workload>.json.
	traceDir string
	// env is added to every child's environment (the tests use it to make
	// the test binary behave as the benchmark).
	env []string
}

// childSeed derives the seed of the k-th timed child. Children of one run
// take different seeds: a run's medians then average over the protocol's
// own randomness (who leads, where forks fall) as well as over host noise.
func (p parent) childSeed(k int) int64 { return sim.DeriveSeed(p.seed, uint64(k)) }

// spawn re-executes this binary as one child and parses its result line.
func (p parent) spawn(spec childSpec) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	args := []string{"-child", "-workload", spec.Workload, "-seed", strconv.FormatInt(spec.Seed, 10)}
	if spec.Short {
		args = append(args, "-short")
	}
	if spec.Check {
		args = append(args, "-check")
	}
	if spec.TracePath != "" {
		args = append(args, "-trace-file", spec.TracePath)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), p.env...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s seed %d: %w", spec.Workload, spec.Seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	res := new(childResult)
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("child %s seed %d: result line: %w", spec.Workload, spec.Seed, err)
	}
	return res, nil
}

// runResult is one run of one workload: medians over its timed children, or
// the traced child's per-layer numbers.
type runResult struct {
	traced            bool
	attempted, failed int64
	metrics           map[string]summary
	problems          []string
}

// contractLine is the JSON object BENCHMARK.json's driver reads from the
// last line of standard output.
func (r *runResult) contractLine() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{r.metrics[d.Name].Median, d.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics}
}

func (r *runResult) adopt(label string, c *childResult) {
	for _, problem := range c.Problems {
		r.problems = append(r.problems, fmt.Sprintf("%s (seed %d): %s", label, c.Seed, problem))
	}
}

// sameDigest requires two children of one seed, in different processes, to
// have produced byte-identical virtual-time outputs.
func (r *runResult) sameDigest(label string, a, b *childResult) {
	if a.Digest != b.Digest {
		r.problems = append(r.problems, fmt.Sprintf("%s: digest differs between two processes on seed %d: %s",
			label, a.Seed, firstDifference(a.Digest, b.Digest)))
	}
}

// timedRun measures a workload's end-to-end metrics: the timed children,
// then a check child that repeats the first child's seed with invariants on.
func (p parent) timedRun(w workload) (*runResult, error) {
	r := &runResult{metrics: map[string]summary{}}
	samples := map[string][]float64{}
	var first *childResult
	for k := 0; k < childrenFor(w, p.seconds); k++ {
		c, err := p.spawn(childSpec{Workload: w.name, Seed: p.childSeed(k), Short: p.short})
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = c
		}
		r.adopt("timed child", c)
		r.attempted += c.Attempted
		r.failed += c.Failed
		for _, d := range endToEnd {
			samples[d.Name] = append(samples[d.Name], c.E2E[d.Name])
		}
	}
	check, err := p.spawn(childSpec{Workload: w.name, Seed: p.childSeed(0), Short: p.short, Check: true})
	if err != nil {
		return nil, err
	}
	r.adopt("check child", check)
	r.sameDigest("check child", first, check)
	for _, d := range endToEnd {
		r.metrics[d.Name] = summarize(samples[d.Name])
	}
	return r, nil
}

// tracedRun measures a workload's per-layer metrics: one untraced child for
// the reference wall time and digest, then the traced child on the same seed.
// trace.overhead_share is the traced timed region against the untraced one.
func (p parent) tracedRun(w workload) (*runResult, error) {
	plain, err := p.spawn(childSpec{Workload: w.name, Seed: p.childSeed(0), Short: p.short})
	if err != nil {
		return nil, err
	}
	traced, err := p.spawn(childSpec{Workload: w.name, Seed: plain.Seed, Short: p.short,
		TracePath: filepath.Join(p.traceDir, "trace-"+w.name+".json")})
	if err != nil {
		return nil, err
	}
	r := &runResult{traced: true, metrics: map[string]summary{},
		attempted: traced.Attempted, failed: traced.Failed}
	r.adopt("traced child", traced)
	r.sameDigest("traced child", plain, traced)
	if wall := plain.E2E["wall_s"]; wall > 0 {
		traced.Layer["trace.overhead_share"] = (traced.E2E["wall_s"] - wall) / wall
	}
	for _, d := range perLayer {
		r.metrics[d.Name] = summarize([]float64{traced.Layer[d.Name]})
	}
	for _, name := range sortedKeys(traced.Layer) {
		if _, known := r.metrics[name]; !known {
			r.problems = append(r.problems, fmt.Sprintf("traced child printed unknown per-layer metric %s", name))
		}
	}
	return r, nil
}

// firstDifference names the first line where two digests disagree.
func firstDifference(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var la, lb string
		if i < len(al) {
			la = al[i]
		}
		if i < len(bl) {
			lb = bl[i]
		}
		if la != lb {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la, lb)
		}
	}
	return "digests equal"
}
