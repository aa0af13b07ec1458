package main

import "fmt"

// childResult is the one JSON line a child prints.
type childResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"digest"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer"`
	Problems  []string           `json:"problems"`
}

// runChild runs one workload once in this process. start is the host sample
// taken first thing in main, so set-up time covers everything this process
// did before the timed region.
func runChild(spec childSpec, start hostSample) (*childResult, error) {
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	var tr *tracer
	if spec.TracePath != "" {
		tr = newTracer()
	}
	m := &meter{start: start}
	o, err := w.run(spec, m, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	e2e := e2eMetrics(m, o)
	layer := o.layer
	layer["protocol.conf_p90_s"] = o.virtual.confP90.Seconds()
	layer["protocol.conf_p99_s"] = o.virtual.confP99.Seconds()
	layer["protocol.propagation_p50_s"] = o.virtual.propagationP50.Seconds()
	cpu := e2e["cpu_s"]
	if cpu > 0 {
		layer["sim.events_per_cpu_s"] = layer["sim.events"] / cpu
	}
	if tr != nil {
		cn := o.canonical
		if cn == nil {
			// Unit costs replay livesync3's canonical chain on every
			// workload, so their numbers are comparable across the four.
			if cn, err = buildCanonical(childSpec{Seed: spec.Seed, Short: spec.Short}); err != nil {
				return nil, fmt.Errorf("canonical chain: %w", err)
			}
		}
		o.problems = append(o.problems, unitCosts(cn, spec.Seed, tr, layer)...)
		o.facts.analyzeRecords = float64(cn.cluster.Size()) * float64(cn.analysis.Blocks)
		attribute(o.facts, layer, o.txs, cpu)
		// The base of every share.* ratio, printed beside them.
		layer["trace.cpu_s"] = cpu
		if err := tr.write(spec.TracePath, w.name, spec.Seed); err != nil {
			return nil, err
		}
	}
	checkFinite(o, e2e)
	checkFinite(o, layer)
	for _, d := range endToEnd {
		if v, ok := e2e[d.Name]; !ok || v <= 0 {
			o.problemf("end-to-end metric %s is %v; every one must be present and positive", d.Name, v)
		}
	}
	return &childResult{
		Workload:  w.name,
		Seed:      spec.Seed,
		Attempted: o.attempted,
		Failed:    o.failed,
		Digest:    o.digest,
		E2E:       e2e,
		Layer:     layer,
		Problems:  o.problems,
	}, nil
}
