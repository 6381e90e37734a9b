package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesRegistry keeps ../BENCHMARK.json, which
// describes the benchmark to whoever runs it, in step with the metrics
// and workloads this program reports.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadInfo) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloadInfo))
	}
	for i, w := range workloadInfo {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if _, err := newWorkload(w.name, defaultSeed); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, m.name, m.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestDiffOutputs pins the output check: a changed value, a missing key
// and an extra key each count as a difference.
func TestDiffOutputs(t *testing.T) {
	want := outputs{"a": "1", "b": "2"}
	if d := diffOutputs(want, outputs{"a": "1", "b": "2"}); len(d) != 0 {
		t.Fatalf("identical outputs differ in %v", d)
	}
	d := diffOutputs(want, outputs{"a": "9", "c": "3"})
	if len(d) != 3 || d[0] != "a" || d[1] != "b" || d[2] != "c" {
		t.Fatalf("diff = %v, want [a b c]", d)
	}
}

// TestSelfTime checks that a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "outer", Start: 0, End: 100, Parent: -1},
		{Name: "inner", Start: 10, End: 40, Parent: 0},
		{Name: "inner", Start: 50, End: 70, Parent: 0},
	}}
	tot := tr.totals()
	if got := tot["outer"].Self * 1e9; got < 49.9 || got > 50.1 {
		t.Errorf("outer self = %vns, want 50ns", got)
	}
	if got := tot["inner"]; got.Count != 2 || got.Self*1e9 < 49.9 || got.Self*1e9 > 50.1 {
		t.Errorf("inner = %+v, want 2 spans, 50ns self", got)
	}
}

// TestDrainQueueShape checks that every seed yields the fixed queue
// shape, so the drain's host cost does not depend on the seed's draw.
func TestDrainQueueShape(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		jobs, err := drainQueue(seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]int{}
		for i, j := range jobs {
			n := seen[j.Midplanes]
			band := int(j.Work-drainWorkMin) / drainWorkBand
			if j.ID != i || j.Midplanes != drainPattern[i] || j.Exchanges != 1+n%3 || band != n/3%3 {
				t.Fatalf("seed %d job %d: %+v does not fit the pattern", seed, i, j)
			}
			seen[j.Midplanes]++
		}
	}
}
