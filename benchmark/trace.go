package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one traced interval around a call (or a batch of calls) into a
// layer's public API. Parent is the ID of the span that caused it, -1 at the
// root; Ops is how many unit operations the interval covered, so a unit
// cost is Dur/Ops.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Ops     int64  `json:"ops,omitempty"`
}

// tracer keeps spans in memory and writes them out once, when the traced
// child ends. A nil tracer records nothing, which is how untraced children
// run: end-to-end numbers never pay for tracing.
type tracer struct {
	origin hostSample
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: readHost()} }

func (t *tracer) now() int64 { return int64(readHost().wall.Sub(t.origin.wall)) }

// begin opens a span and returns its ID; -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: t.now()})
	return id
}

// end closes a span, recording how many unit operations it covered.
func (t *tracer) end(id int, ops int64) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = t.now()
	t.spans[id].Ops = ops
}

// seconds sums the durations of every span with the given name.
func (t *tracer) seconds(name string) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			ns += t.spans[i].EndNs - t.spans[i].StartNs
		}
	}
	return float64(ns) / 1e9
}

// unitNs is the median over a name's spans of duration per unit operation:
// a hiccup inside one span moves one sample, not the reported cost.
func (t *tracer) unitNs(name string) float64 {
	if t == nil {
		return 0
	}
	var per []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && s.Ops > 0 {
			per = append(per, float64(s.EndNs-s.StartNs)/float64(s.Ops))
		}
	}
	return median(per)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	out, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
