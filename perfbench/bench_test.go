package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json at the repository root
// to the workloads and metric tables this program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		file  []struct{ Name, Unit, Better string }
		table []metric
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.table) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.file), len(c.table))
		}
		for i, m := range c.file {
			want := c.table[i]
			if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %s %s %s", i, m, want.Name, want.Unit, want.Better)
			}
		}
	}
}

// TestTracingIsPureObservation runs every workload untraced and traced with
// one seed: no operation may fail, the model digests must agree, and the
// spans must reconcile with the system's counters.
func TestTracingIsPureObservation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		plain, err := w.run(3, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := w.run(3, &spans{})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if plain.failed != 0 || traced.failed != 0 {
			t.Errorf("%s: %d / %d failed ops", w.name, plain.failed, traced.failed)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: digest %016x untraced, %016x traced", w.name, plain.digest, traced.digest)
		}
		for _, p := range traced.problems {
			t.Errorf("%s: %s", w.name, p)
		}
	}
}
