package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "serve-cold", "--seed", "3", "--seconds", "18", "--trace", "0"},
			[]string{"--workload", "serve-cold", "--seed", "3", "--seconds", "18", "--trace=0"}},
		{[]string{"--trace", "1", "--seed", "3"}, []string{"--trace=1", "--seed", "3"}},
		{[]string{"--seed", "1", "--trace"}, []string{"--seed", "1", "--trace"}},
		{[]string{"--trace", "--out", "x"}, []string{"--trace", "--out", "x"}},
		{[]string{"--trace=1"}, []string{"--trace=1"}},
	} {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue and the workload files")

// BENCHMARK.json at the repository root states the same workloads and
// metrics as the code: names, units, directions, gates, and each
// workload's why. `go test -C benchmark -run Manifest -update` rewrites
// it.
func TestManifestMatchesCatalogue(t *testing.T) {
	want := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: referenceSeconds,
	}
	for _, name := range workloadNames {
		w, err := loadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		want.Workloads = append(want.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		gate := d.Gate
		want.EndToEnd = append(want.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &gate})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue and the workload files (run with -update)\n got %+v\nwant %+v", got, want)
	}
}

// The catalogue itself keeps to the contract's limits on names, units
// and counts.
func TestCatalogueWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics: outside 1..16 / 1..128", len(endToEnd), len(perLayer))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Gate < d.Bound || d.Gate > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v and gate %v must satisfy 0 < bound <= gate <= 0.25", d.Name, d.Bound, d.Gate)
		}
	}
	if d, ok := defOf("setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", d)
	}
}
