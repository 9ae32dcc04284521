package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// reportSchema versions the report JSON; --compare refuses another.
const reportSchema = 1

// Value is one measured number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Run is one run of one workload: the result line the driver reads, plus
// what does not fit in it.
type Run struct {
	Seed  uint64 `json:"seed"`
	Trace bool   `json:"trace"`
	// Correct is whether every output check held.
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Metrics holds every end-to-end metric (Trace false) or every
	// per-layer metric (Trace true), by name.
	Metrics map[string]Value `json:"metrics"`
	// Extra holds numbers reported beside the contract's metrics: sample
	// counts, serve counter deltas, generator lateness, fail_share.
	Extra map[string]Value `json:"extra,omitempty"`
	// Failures names the first few failed operations.
	Failures []string `json:"failures,omitempty"`
}

// maxFailures bounds Run.Failures; the counts stay exact.
const maxFailures = 20

// op counts one attempted operation; a non-nil err makes it a failed
// one.
func (r *Run) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < maxFailures {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

func (r *Run) set(name string, v float64) {
	d, ok := defOf(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	r.Metrics[name] = Value{Value: v, Unit: d.Unit}
}

func (r *Run) extra(name, unit string, v float64) {
	r.Extra[name] = Value{Value: v, Unit: unit}
}

func newRun(seed uint64, trace bool) *Run {
	return &Run{Seed: seed, Trace: trace, Metrics: map[string]Value{}, Extra: map[string]Value{}}
}

// finish fills in every catalogue metric the workload did not set (a
// layer the workload never enters reads 0) and settles Correct.
func (r *Run) finish() {
	list := endToEnd
	if r.Trace {
		list = perLayer
	}
	for _, d := range list {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = Value{Unit: d.Unit}
		}
	}
	r.Correct = r.Failed == 0
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	r.extra("fail_share", "share", share)
}

// resultLine is the one JSON object the driver reads from the last line
// of standard output.
func (r *Run) resultLine() string {
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil { // plain numbers and strings
		panic(err)
	}
	return string(data)
}

// WorkloadReport is every run of one workload in one set.
type WorkloadReport struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	Runs []*Run `json:"runs"`
}

// Report is one set of runs: what one invocation measured.
type Report struct {
	Schema int `json:"schema"`
	// Claim is null: this benchmark's own change claims no gain, and a
	// report is a measurement, not a comparison.
	Claim     *string           `json:"claim"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       map[string]any    `json:"env"`
	Workloads []*WorkloadReport `json:"workloads"`
}

func newReport(seed uint64, seconds float64, trace bool) *Report {
	return &Report{
		Schema: reportSchema, Seed: seed, Seconds: seconds, Trace: trace,
		Env: map[string]any{
			"goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"num_cpu": runtime.NumCPU(), "go_version": runtime.Version(),
		},
	}
}

func (r *Report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: report schema %d, this tool reads %d", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// values collects one metric across a workload's runs.
func (w *WorkloadReport) values(name string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// failShare is failed over attempted across the workload's runs.
func (w *WorkloadReport) failShare() float64 {
	var failed, attempted int
	for _, r := range w.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// print writes every metric of the workload by name with its unit: the
// median over the runs, and the run-to-run spread when there are enough
// runs to have one.
func (w *WorkloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s (%d run(s)) ==\n", w.Name, len(w.Runs))
	if len(w.Runs) == 0 {
		return
	}
	printValues := func(m func(*Run) map[string]Value) {
		names := map[string]string{}
		for _, r := range w.Runs {
			for n, v := range m(r) {
				names[n] = v.Unit
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			var xs []float64
			for _, r := range w.Runs {
				if v, ok := m(r)[n]; ok {
					xs = append(xs, v.Value)
				}
			}
			line := fmt.Sprintf("  %-42s %14.6g %-6s", n, median(xs), names[n])
			if len(xs) >= 3 {
				line += fmt.Sprintf("  spread %.1f%%", 100*spread(xs))
			}
			if d, ok := defOf(n); ok && d.Bound > 0 {
				line += fmt.Sprintf("  (bound %.0f%%, %s is better)", 100*d.Bound, d.Better)
			}
			fmt.Fprintln(out, line)
		}
	}
	printValues(func(r *Run) map[string]Value { return r.Metrics })
	printValues(func(r *Run) map[string]Value { return r.Extra })
	for _, r := range w.Runs {
		for _, f := range r.Failures {
			fmt.Fprintf(out, "  FAILED (seed %d): %s\n", r.Seed, f)
		}
	}
}
