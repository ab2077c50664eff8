package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json is what the driver reads; spec.go is what the program
// reports. They must name the same workloads and metrics.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	keys := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(raw) != len(keys) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(raw), keys)
	}
	for _, k := range keys {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "-C", "benchmark", "."}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	for i := range workloadSpecs {
		if i >= len(doc.Workloads) || doc.Workloads[i].Name != workloadSpecs[i].Name || doc.Workloads[i].Why != workloadSpecs[i].Why {
			t.Errorf("workload %d differs from spec.go's %q", i, workloadSpecs[i].Name)
		}
		if n := len(workloadSpecs[i].Why); n > 200 {
			t.Errorf("%s: why is %d characters, limit 200", workloadSpecs[i].Name, n)
		}
	}
	if len(doc.Workloads) != len(workloadSpecs) || !reflect.DeepEqual(doc.EndToEnd, endToEnd) || !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Error("BENCHMARK.json's workloads or metrics differ from spec.go")
	}
	seen := map[string]bool{}
	for _, group := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range group {
			if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %+v: duplicate, overlong or without a direction", m)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(perLayer) > 128 || endToEnd[0].Name != "setup_s" {
		t.Error("per_layer is capped at 128 and setup_s must be an end-to-end metric")
	}
}
