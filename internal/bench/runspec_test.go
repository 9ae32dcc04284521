package bench

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// A spec must survive a JSON round trip unchanged, and strict parsing
// must reject unknown fields instead of silently ignoring a typo'd knob.
func TestRunSpecJSONRoundTrip(t *testing.T) {
	in := RunSpec{
		Figure: "fig2", Row: "SimSQL", Col: "20m",
		Iterations: 3, ScaleDiv: 0.5, Seed: 7, Workers: 4,
		Shards: 3, Staleness: 2, Sampler: "mhalias", Dataset: "skew-heavy",
		Faults: FaultConfig{Failures: 2, FailAt: 0.25, Straggle: 4, BSPCheckpointEvery: 2, GASSnapshotEvery: -1},
		Trace:  TraceSpec{Phases: true, Out: "t.json", CSV: "t.csv", Metrics: true},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseRunSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the spec:\n in=%+v\nout=%+v", in, out)
	}
	if _, err := ParseRunSpec([]byte(`{"figur": "fig1a"}`)); err == nil {
		t.Error("unknown field accepted; want a strict-parse error")
	}
	if _, err := ParseRunSpec([]byte(`{"figure": `)); err == nil {
		t.Error("truncated JSON accepted")
	}
}

// Golden cache keys: the canonical hash is part of the service's wire
// contract (cached results are addressed by it), so accidental drift must
// show up here. Regenerate deliberately if the keyDoc schema changes —
// and bump keyVersion when you do.
func TestRunSpecCacheKeyGolden(t *testing.T) {
	golden := []struct {
		name string
		spec RunSpec
		key  string
	}{
		{"zero-fig1a", RunSpec{Figure: "fig1a"},
			"3e67fcc226df9cc4430b764235ecef1795214eafa17f70cd25c52ecefa620ac5"},
		{"cell", RunSpec{Figure: "fig6", Row: "Spark (Java)", Col: "5m"},
			"b91219c78abdb8c20839ee551ed545020ecc0f138c9c874a0fc7167490e805b9"},
		{"faulted", RunSpec{Figure: "fig2", Faults: FaultConfig{Failures: 1}},
			"0bca79b043ba7776743ba0725b6c9d36b55f77a4568fb736fd91a04370ec8d24"},
		{"traced", RunSpec{Figure: "fig1a", Trace: TraceSpec{Phases: true}},
			"619544f90751ebf87ce9a92a84d248c849aae1ed583ae070c18a0edd0cc9b500"},
		{"ps", RunSpec{Figure: "fig-ps", Shards: 3, Staleness: 2},
			"1eb37c505e83a49a4f9e2ca8d72b2ebc74976c1901ad606887728c4d80eb035e"},
		{"mhalias-cell", RunSpec{Figure: "fig4b", Row: "Giraph", Col: "5m", Sampler: "mhalias"},
			"0ccd89d8f66d825a6b4dbdbc5877629bced738101f5aa23d00e2adff3e575c4c"},
		{"dataset", RunSpec{Figure: "fig-imbal", Dataset: "imbal-8x"},
			"da78191c847e75a60117b5139478cdfd2501a4395b21622e68ee43c46fec654d"},
		{"scale", RunSpec{Figure: "fig-scale"},
			"c22e5e93ad6ba3897f84e741dbb9fcff0b7c7d931b7f01911eea4e58c3ec0632"},
	}
	for _, g := range golden {
		if got := g.spec.CacheKey(); got != g.key {
			t.Errorf("%s: CacheKey = %s, want %s", g.name, got, g.key)
		}
	}
}

// Two specs describing the same computation must share a key; specs
// differing only in host-side concerns (worker count, export paths) must
// too, while any result-affecting knob must split them.
func TestRunSpecCacheKeyEquivalence(t *testing.T) {
	base := RunSpec{Figure: "fig1a"}
	same := []RunSpec{
		{Figure: "fig1a", Iterations: 2, ScaleDiv: 1, Seed: 1},
		{Figure: "fig1a", Workers: 8},
		{Figure: "fig1a", Trace: TraceSpec{Out: "a.json", CSV: "b.csv"}},
		{Figure: "fig1a", Sampler: "dense"},
		// Chunk is a host-memory knob like Workers: results are
		// byte-identical at any chunk size, so it must not split the key.
		{Figure: "fig1a", Chunk: 64},
		{Figure: "fig1a", Chunk: 100_000},
	}
	for i, s := range same {
		if s.CacheKey() != base.CacheKey() {
			t.Errorf("equivalent spec %d got a different key", i)
		}
	}
	different := []RunSpec{
		{Figure: "fig1b"},
		{Figure: "fig1a", Iterations: 3},
		{Figure: "fig1a", Seed: 2},
		{Figure: "fig1a", ScaleDiv: 2},
		{Figure: "fig1a", Faults: FaultConfig{Failures: 1}},
		{Figure: "fig1a", Trace: TraceSpec{Phases: true}},
		{Figure: "fig1a", Row: "SimSQL", Col: "10d/5m"},
		{Figure: "fig-ps"},
		{Figure: "fig-ps", Shards: 3},
		{Figure: "fig-ps", Staleness: 2},
		{Figure: "fig1a", Sampler: "alias"},
		{Figure: "fig1a", Sampler: "mhalias"},
		{Figure: "fig1a", Dataset: "skew-light"},
		{Figure: "fig1a", Dataset: "skew-heavy"},
		{Figure: "fig-skew"},
		{Figure: "fig-imbal"},
		{Figure: "fig-imbal", Dataset: "imbal-2x"},
		{Figure: "fig-scale"},
		{Figure: "fig-scale", Machines: 1000},
	}
	seen := map[string]int{base.CacheKey(): -1}
	for i, s := range different {
		k := s.CacheKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("specs %d and %d collide on key %s", i, prev, k)
		}
		seen[k] = i
	}
	// Fault defaults are normalized into the key: {Failures:1} and
	// {Failures:1, FailAt:0.5} are the same schedule.
	a := RunSpec{Figure: "fig2", Faults: FaultConfig{Failures: 1}}
	b := RunSpec{Figure: "fig2", Faults: FaultConfig{Failures: 1, FailAt: 0.5, BSPCheckpointEvery: 3, GASSnapshotEvery: 3}}
	if a.CacheKey() != b.CacheKey() {
		t.Error("fault defaults not normalized into the cache key")
	}
	// The fig-scale machine default is normalized into the key the same
	// way: leaving Machines at 0 and spelling out 10,000 are the same run.
	c := RunSpec{Figure: "fig-scale"}
	d := RunSpec{Figure: "fig-scale", Machines: 10_000}
	if c.CacheKey() != d.CacheKey() {
		t.Error("fig-scale machine default not normalized into the cache key")
	}
}

// Validation errors must be actionable: an unknown id comes back with the
// list of valid ids.
func TestRunSpecValidateActionable(t *testing.T) {
	cases := []struct {
		spec RunSpec
		want []string // substrings of the error
	}{
		{RunSpec{}, []string{"needs a figure", "fig1a", "fig7c"}},
		{RunSpec{Figure: "fig9"}, []string{`unknown figure "fig9"`, "fig1a", "fig2", "fig7c"}},
		{RunSpec{Figure: "fig2", Row: "Sim", Col: "5m"}, []string{`no row "Sim"`, "SimSQL", "Giraph (Super Vertex)"}},
		{RunSpec{Figure: "fig2", Row: "SimSQL", Col: "7m"}, []string{`no column "7m"`, "5m", "20m", "100m"}},
		{RunSpec{Figure: "fig2", Row: "SimSQL"}, []string{"needs both row and col"}},
		{RunSpec{Figure: "fig2", Iterations: -1}, []string{"iterations"}},
		{RunSpec{Figure: "fig2", Faults: FaultConfig{Straggle: 0.5}}, []string{"straggle"}},
		{RunSpec{Figure: "fig-ps", Shards: -1}, []string{"shards"}},
		{RunSpec{Figure: "fig-ps", Staleness: -2}, []string{"staleness"}},
		{RunSpec{Figure: "fig4b", Sampler: "turbo"}, []string{`sampler tier "turbo"`, "dense", "mhalias"}},
		{RunSpec{Figure: "fig2", Machines: 500}, []string{"machines only applies to fig-scale"}},
		{RunSpec{Figure: "fig-scale", Machines: 50}, []string{"machines must be >= 100"}},
		{RunSpec{Figure: "fig-scale", Chunk: -1}, []string{"chunk must be >= 0"}},
		{RunSpec{Figure: "fig-scale", Row: "SimSQL", Col: "GMM 7m"}, []string{`no column "GMM 7m"`, "GMM 100m", "LDA 10000m"}},
		{RunSpec{Figure: "fig-skew", Dataset: "skewy"}, []string{`dataset scenario "skewy"`, "skew-light", "imbal-8x"}},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("spec %+v: want validation error", c.spec)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("spec %+v: error %q missing %q", c.spec, err, w)
			}
		}
	}
	if err := (RunSpec{Figure: "fig6", Row: "Spark (Java)", Col: "5m"}).Validate(); err != nil {
		t.Errorf("valid cell spec rejected: %v", err)
	}
	// Validation must check row/col against the figure the spec will
	// actually run: -machines renames the fig-scale columns.
	if err := (RunSpec{Figure: "fig-scale", Machines: 500, Row: "SimSQL", Col: "GMM 500m"}).Validate(); err != nil {
		t.Errorf("custom-machines cell spec rejected: %v", err)
	}
	if err := (RunSpec{Figure: "fig-scale", Row: "Param Server", Col: "LDA 10000m"}).Validate(); err != nil {
		t.Errorf("default-machines cell spec rejected: %v", err)
	}
}

// ExecuteSpec is the single execution path: a cell spec must reproduce
// exactly the cell the whole-figure spec computes, and the rendered 1x1
// table must be byte-stable across repeat executions and worker counts.
func TestExecuteSpecCellMatchesFigureSpec(t *testing.T) {
	spec := RunSpec{Figure: "fig6", Row: "Spark (Java)", Col: "5m", Iterations: 1, ScaleDiv: 0.02, Seed: 3}
	res, err := ExecuteSpec(context.Background(), spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	whole := spec
	whole.Row, whole.Col = "", ""
	wres, err := ExecuteSpec(context.Background(), whole, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := wres.Table.Cells["Spark (Java)"]["5m"]
	got := res.Table.Cells["Spark (Java)"]["5m"]
	if got.String() != want.String() {
		t.Errorf("cell spec = %s, whole-figure spec = %s", got, want)
	}
	if len(res.Table.Rows) != 1 || len(res.Table.Cols) != 1 || res.Table.Title != wres.Table.Title {
		t.Errorf("cell table shape: rows %v cols %v title %q", res.Table.Rows, res.Table.Cols, res.Table.Title)
	}
	spec2 := spec
	spec2.Workers = 1
	res2, err := ExecuteSpec(context.Background(), spec2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Render() != res2.Table.Render() {
		t.Error("rendered table differs between worker counts")
	}
}

// An mhalias cell must be byte-identical across worker counts too: the
// cached-proposal tier rebuilds its alias tables only at serial points,
// so the host-side parallelism knob must not perturb the sampled stream.
func TestExecuteSpecMHAliasWorkerIdentity(t *testing.T) {
	spec := RunSpec{Figure: "fig4b", Row: "Giraph", Col: "5m",
		Iterations: 1, ScaleDiv: 0.02, Seed: 3, Sampler: "mhalias", Workers: 8}
	res, err := ExecuteSpec(context.Background(), spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec2 := spec
	spec2.Workers = 1
	res2, err := ExecuteSpec(context.Background(), spec2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Render() != res2.Table.Render() {
		t.Error("mhalias cell differs between 8 and 1 workers")
	}
	// And the tier must actually change the result relative to dense.
	dense := spec
	dense.Sampler = "dense"
	res3, err := ExecuteSpec(context.Background(), dense, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Cells["Giraph"]["5m"].String() == res3.Table.Cells["Giraph"]["5m"].String() {
		t.Error("mhalias cell identical to dense; the tier did not reach the task")
	}
}

// A dataset scenario must be byte-identical across worker counts — the
// scenario generators shard their RNG streams the same way the
// historical ones do — and must actually change the sampled data
// relative to the paper shape.
func TestExecuteSpecDatasetWorkerIdentity(t *testing.T) {
	spec := RunSpec{Figure: "fig6", Row: "Spark (Java)", Col: "5m",
		Iterations: 1, ScaleDiv: 0.02, Seed: 3, Dataset: "skew-heavy", Workers: 8}
	res, err := ExecuteSpec(context.Background(), spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec2 := spec
	spec2.Workers = 1
	res2, err := ExecuteSpec(context.Background(), spec2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Render() != res2.Table.Render() {
		t.Error("skew-heavy cell differs between 8 and 1 workers")
	}
	paper := spec
	paper.Dataset = ""
	res3, err := ExecuteSpec(context.Background(), paper, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Cells["Spark (Java)"]["5m"].String() == res3.Table.Cells["Spark (Java)"]["5m"].String() {
		t.Error("skew-heavy cell identical to paper shape; the scenario did not reach the task")
	}
}

// ExecuteSpec must reject an invalid spec before doing any work, and a
// cancelled context must surface as an error, not as Fail cells.
func TestExecuteSpecValidationAndCancel(t *testing.T) {
	if _, err := ExecuteSpec(context.Background(), RunSpec{Figure: "nope"}, ExecOptions{}); err == nil {
		t.Error("invalid spec executed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteSpec(ctx, RunSpec{Figure: "fig6", Iterations: 1, ScaleDiv: 0.02}, ExecOptions{})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: got err %v, want context.Canceled", err)
	}
}

// Progress events stream from measured runs with the cell label attached
// and a non-decreasing per-cell clock.
func TestExecuteSpecProgress(t *testing.T) {
	var events []ProgressEvent
	spec := RunSpec{Figure: "fig6", Row: "Spark (Java)", Col: "5m", Iterations: 1, ScaleDiv: 0.02}
	_, err := ExecuteSpec(context.Background(), spec, ExecOptions{
		Progress: func(e ProgressEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	var last float64
	for _, e := range events {
		if e.Cell != "fig6/Spark (Java)/5m" {
			t.Fatalf("event cell = %q", e.Cell)
		}
		if e.Phase == "" {
			t.Fatal("event without a phase name")
		}
		if e.ClockSec < last {
			t.Fatalf("clock went backwards: %v after %v", e.ClockSec, last)
		}
		last = e.ClockSec
	}
}

// Every RunSpec knob is either cache-keyed or on the explicit host-side
// list: walking the struct by reflection means a newly added field that
// keyDoc/CacheKey forgot fails here instead of silently coalescing
// different runs onto one cached table.
func TestRunSpecCacheKeyCoversEveryField(t *testing.T) {
	unkeyed := map[string]bool{"Workers": true, "Chunk": true, "Trace.Out": true, "Trace.CSV": true}
	// Valid non-default values for the fields whose kind default below
	// would not be valid.
	values := map[string]any{
		"Figure": "fig1a", "Row": "SimSQL", "Col": "GMM 100m",
		"Sampler": "alias", "Dataset": "skew-light", "Machines": 1000,
	}
	base := RunSpec{Figure: "fig-scale"}
	var walk func(typ reflect.Type, index []int, path string)
	walk = func(typ reflect.Type, index []int, path string) {
		for i := 0; i < typ.NumField(); i++ {
			sf := typ.Field(i)
			name, idx := path+sf.Name, append(index[:len(index):len(index)], i)
			if sf.Type.Kind() == reflect.Struct {
				walk(sf.Type, idx, name+".")
				continue
			}
			spec := base
			f := reflect.ValueOf(&spec).Elem().FieldByIndex(idx)
			if v, ok := values[name]; ok {
				f.Set(reflect.ValueOf(v))
			} else {
				switch f.Kind() {
				case reflect.Bool:
					f.SetBool(true)
				case reflect.Int:
					f.SetInt(3)
				case reflect.Uint64:
					f.SetUint(3)
				case reflect.Float64:
					f.SetFloat(2)
				case reflect.String:
					f.SetString("x")
				default:
					t.Fatalf("field %s (%s) needs an entry in values", name, f.Kind())
				}
			}
			// A lone Row or Col is rejected by Validate, but the key must
			// still tell it apart.
			if name != "Row" && name != "Col" {
				if err := spec.Validate(); err != nil {
					t.Errorf("field %s: the test value is not valid: %v", name, err)
					continue
				}
			}
			changed := spec.CacheKey() != base.CacheKey()
			if unkeyed[name] && changed {
				t.Errorf("host-side field %s changes the cache key", name)
			}
			if !unkeyed[name] && !changed {
				t.Errorf("field %s does not change the cache key: add it to keyDoc/CacheKey (and bump keyVersion), or to the unkeyed list if it cannot change a result", name)
			}
			delete(unkeyed, name)
		}
	}
	walk(reflect.TypeOf(base), nil, "")
	for name := range unkeyed {
		t.Errorf("unkeyed list names %s, which is not a RunSpec field", name)
	}
}
