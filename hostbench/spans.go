package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one host-time interval the benchmark spent inside a call into
// a layer. Spans nest: parent is the index of the enclosing span, -1 at
// the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer records spans in memory around the benchmark's own calls into
// the simulator's layers; nothing is recorded inside the program. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
// The benchmark drives every layer from one goroutine, so a stack gives
// each span its parent.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// spanTotal is the time recorded under one span name.
type spanTotal struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"` // total minus the time of child spans
}

// totals folds the spans by name. A span's self time is its duration
// minus its children's: the calls the benchmark makes are sequential, so
// children never overlap.
func (t *tracer) totals() map[string]*spanTotal {
	out := map[string]*spanTotal{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.Total += float64(s.End-s.Start) / 1e9
		st.Self += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// traceReport is what the traced pass writes out when it ends.
type traceReport struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Totals   []*spanTotal `json:"self_time"`
	PerOp    []perOpRow   `json:"per_op"`
	Metrics  metricValues `json:"metrics"`
	Spans    []span       `json:"spans"`
}

func writeTraceReport(path string, rep traceReport, t *tracer) error {
	for _, st := range t.totals() {
		rep.Totals = append(rep.Totals, st)
	}
	sort.Slice(rep.Totals, func(i, j int) bool { return rep.Totals[i].Self > rep.Totals[j].Self })
	rep.Spans = t.spans
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
