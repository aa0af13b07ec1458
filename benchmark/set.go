package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// workloadResult is one workload's complete measurement: end-to-end medians
// from the timed children and per-layer numbers from the traced child.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Problems  []string           `json:"problems,omitempty"`
}

// resultSet is one complete run of every workload.
type resultSet struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// runSet measures every workload: its timed run, then its traced run.
func runSet(p parent) (*resultSet, error) {
	set := &resultSet{Seed: p.seed, Seconds: p.seconds}
	for _, w := range workloads {
		timed, err := p.timedRun(w)
		if err != nil {
			return nil, err
		}
		traced, err := p.tracedRun(w)
		if err != nil {
			return nil, err
		}
		res := workloadResult{Workload: w.name, Attempted: timed.attempted, Failed: timed.failed,
			EndToEnd: timed.metrics, PerLayer: map[string]float64{}}
		for _, d := range perLayer {
			res.PerLayer[d.Name] = traced.metrics[d.Name].Median
		}
		res.Problems = append(append(res.Problems, timed.problems...), traced.problems...)
		set.Workloads = append(set.Workloads, res)
	}
	return set, nil
}

func (s *resultSet) correct() bool {
	for _, w := range s.Workloads {
		if len(w.Problems) > 0 {
			return false
		}
	}
	return true
}

// print lists every metric by name with its unit: end-to-end as median,
// quartiles and sample count; per-layer as the traced child's value.
func (s *resultSet) print(out io.Writer) {
	for _, w := range s.Workloads {
		fmt.Fprintf(out, "%s  seed=%d  attempted=%d failed=%d\n", w.Workload, s.Seed, w.Attempted, w.Failed)
		for _, d := range endToEnd {
			m := w.EndToEnd[d.Name]
			fmt.Fprintf(out, "  %-38s %14.6g %-6s q1=%.6g q3=%.6g n=%d spread=%.3f bound=%.2f\n",
				d.Name, m.Median, d.Unit, m.Q1, m.Q3, m.N, m.spread(), d.Bound)
		}
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-38s %14.6g %s\n", d.Name, w.PerLayer[d.Name], d.Unit)
		}
		for _, problem := range w.Problems {
			fmt.Fprintf(out, "  INCORRECT: %s\n", problem)
		}
	}
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// virtualTime lists the end-to-end metrics that are in virtual time on the
// simulated workloads, and so pure functions of the seed there.
var virtualTime = map[string]bool{"confirmed_tps": true, "conf_p50_s": true, "consensus_delay_s": true}

// repeatsExactly reports whether a second set of the same binary must
// reproduce a workload's metric to the last bit.
func repeatsExactly(w workload, metric string) bool {
	return metric == "ok_share" || virtualTime[metric] && !w.hostClock
}

// runAA runs two complete sets of the same binary back to back and prints,
// per workload and end-to-end metric, the two medians, their relative gap
// and the bound. It reports false when a set is incorrect, a host metric's
// second median is worse than the first by more than its bound, or a
// virtual-time metric differs at all.
func runAA(out io.Writer, p parent) (bool, error) {
	a, err := runSet(p)
	if err != nil {
		return false, err
	}
	b, err := runSet(p)
	if err != nil {
		return false, err
	}
	ok := a.correct() && b.correct()
	fmt.Fprintf(out, "A/A: two sets of the same binary, seed %d, %d s per run\n", p.seed, p.seconds)
	fmt.Fprintf(out, "%-11s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "first", "second", "gap", "bound", "verdict")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, problem := range append(wa.Problems, wb.Problems...) {
			fmt.Fprintf(out, "%-11s INCORRECT: %s\n", wa.Workload, problem)
		}
		for _, d := range endToEnd {
			first, second := wa.EndToEnd[d.Name].Median, wb.EndToEnd[d.Name].Median
			// gap > 0 means the second set is worse.
			gap := (second - first) / first
			if d.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			switch {
			case repeatsExactly(workloads[i], d.Name) && first != second:
				verdict, ok = "DIFFERS (must be identical)", false
			case gap > d.Bound:
				verdict, ok = "OVER BOUND", false
			}
			fmt.Fprintf(out, "%-11s %-18s %14.6g %14.6g %+8.2f%% %5.0f%%  %s\n",
				wa.Workload, d.Name, first, second, 100*gap, 100*d.Bound, verdict)
		}
		for _, name := range []string{"trace.overhead_share", "share.unattributed"} {
			fmt.Fprintf(out, "%-11s %-18s %14.6g %14.6g\n", wa.Workload, name, wa.PerLayer[name], wb.PerLayer[name])
		}
	}
	return ok, nil
}
