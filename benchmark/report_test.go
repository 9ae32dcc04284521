package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleReport is a two-workload untraced report with n runs per
// workload around the given wall_s values.
func sampleReport(walls ...float64) *Report {
	r := newReport(1, referenceSeconds, false)
	for _, name := range []string{"batch-kernels", "serve-zipf"} {
		w := &WorkloadReport{Name: name, Why: "because"}
		for i, wall := range walls {
			run := newRun(uint64(1+i), false)
			run.op(nil)
			run.set("wall_s", wall)
			run.set("throughput_rps", 100/wall)
			run.set("setup_s", 0.5)
			run.extra("reps", "count", 3)
			run.finish()
			w.Runs = append(w.Runs, run)
		}
		r.Workloads = append(r.Workloads, w)
	}
	return r
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := sampleReport(5.0, 5.1, 4.9)
	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	// JSON turns env's ints into float64; compare through JSON.
	a, _ := json.Marshal(r)
	b, _ := json.Marshal(back)
	if !bytes.Equal(a, b) {
		t.Errorf("report changed in a write/read round trip:\n%s\n%s", a, b)
	}
	if !reflect.DeepEqual(r.Workloads, back.Workloads) {
		t.Errorf("workload runs changed in a round trip")
	}

	// The schema's fixed points: a null claim, every end-to-end metric
	// present in an untraced run, the schema number checked on read.
	var doc map[string]any
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	if claim, ok := doc["claim"]; !ok || claim != nil {
		t.Errorf(`report must carry "claim": null, got %v (present %v)`, claim, ok)
	}
	for _, d := range endToEnd {
		if _, ok := back.Workloads[0].Runs[0].Metrics[d.Name]; !ok {
			t.Errorf("untraced run lacks end-to-end metric %s", d.Name)
		}
	}
	r.Schema = reportSchema + 1
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("a report of another schema must be refused, got %v", err)
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	run := newRun(1, false)
	run.op(nil)
	run.op(nil)
	run.set("wall_s", 1.25)
	run.finish()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(run.resultLine()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", doc)
	}
	var metrics map[string]Value
	if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("untraced result line carries %d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	if metrics["wall_s"] != (Value{1.25, "s"}) {
		t.Errorf("wall_s = %+v", metrics["wall_s"])
	}
	if string(doc["correct"]) != "true" || string(doc["attempted"]) != "2" || string(doc["failed"]) != "0" {
		t.Errorf("counts wrong: %s", run.resultLine())
	}

	traced := newRun(1, true)
	traced.finish()
	if len(traced.Metrics) != len(perLayer) {
		t.Errorf("traced run carries %d metrics, want the %d per-layer ones", len(traced.Metrics), len(perLayer))
	}
}

func TestRunCountsFailures(t *testing.T) {
	run := newRun(1, false)
	run.op(nil)
	run.op(errFake("table differs"))
	run.finish()
	if run.Correct || run.Attempted != 2 || run.Failed != 1 {
		t.Errorf("run = %+v", run)
	}
	if got := run.Extra["fail_share"].Value; got != 0.5 {
		t.Errorf("fail_share = %v, want 0.5", got)
	}
	if len(run.Failures) != 1 || run.Failures[0] != "table differs" {
		t.Errorf("failures = %v", run.Failures)
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }

func verdictOf(rows []compareRow, workload, metric string) string {
	for _, r := range rows {
		if r.Workload == workload && r.Metric == metric {
			return r.Verdict
		}
	}
	return "missing"
}

func TestCompareVerdicts(t *testing.T) {
	base := sampleReport(5.0, 5.1, 4.9)

	// Same code again: inside the bound, spreads narrow.
	rows, failUp := compareReports(base, sampleReport(5.05, 5.15, 4.95))
	if v := verdictOf(rows, "batch-kernels", "wall_s"); v != verdictSame {
		t.Errorf("1%% slower: wall_s %s, want same", v)
	}
	if len(failUp) != 0 {
		t.Errorf("fail_share did not rise, got %v", failUp)
	}

	// 40% slower: beyond wall_s's bound, and throughput (higher is
	// better) falls with it, by 29%.
	rows, _ = compareReports(base, sampleReport(7.0, 7.1, 6.9))
	if v := verdictOf(rows, "serve-zipf", "wall_s"); v != verdictRegressed {
		t.Errorf("40%% slower: wall_s %s, want regressed", v)
	}
	if v := verdictOf(rows, "serve-zipf", "throughput_rps"); v != verdictRegressed {
		t.Errorf("40%% slower: throughput_rps %s, want regressed", v)
	}
	if v := verdictOf(rows, "serve-zipf", "setup_s"); v != verdictSame {
		t.Errorf("setup_s unchanged: %s, want same", v)
	}

	// 30% faster is not a regression in either direction.
	rows, _ = compareReports(base, sampleReport(3.5, 3.6, 3.4))
	if v := verdictOf(rows, "batch-kernels", "wall_s"); v != verdictSame {
		t.Errorf("faster: wall_s %s, want same", v)
	}
	if v := verdictOf(rows, "batch-kernels", "throughput_rps"); v != verdictSame {
		t.Errorf("faster: throughput_rps %s, want same", v)
	}

	// Medians agree, but the runs are spread wider than the bound: the
	// pair cannot be told apart, which is not the same as unchanged.
	rows, _ = compareReports(base, sampleReport(3.0, 5.0, 7.5))
	if v := verdictOf(rows, "batch-kernels", "wall_s"); v != verdictUnresolved {
		t.Errorf("wide spread: wall_s %s, want unresolved", v)
	}

	// ... unless every run of B is better than every run of A.
	wideBase := sampleReport(9.0, 10.0, 13.0)
	rows, _ = compareReports(wideBase, sampleReport(3.0, 5.0, 7.5))
	if v := verdictOf(rows, "batch-kernels", "wall_s"); v != verdictSame {
		t.Errorf("wide spread but all better: wall_s %s, want same", v)
	}
}

func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		p := filepath.Join(dir, name)
		if err := r.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", sampleReport(5.0, 5.1, 4.9))
	same := write("same.json", sampleReport(5.0, 5.2, 4.9))
	slow := write("slow.json", sampleReport(7.0, 7.1, 6.9))
	failing := sampleReport(5.0, 5.1, 4.9)
	failing.Workloads[1].Runs[0].Failed = 1
	bad := write("bad.json", failing)

	var out bytes.Buffer
	if code := compareFiles(&out, a, same); code != 0 {
		t.Errorf("same code: exit %d, want 0\n%s", code, out.String())
	}
	if strings.Contains(out.String(), verdictRegressed) || strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("same code printed a regressed or unresolved row:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, slow); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("regression: exit %d, want 1 with a regressed row\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, bad); code != 1 || !strings.Contains(out.String(), "fail_share rose") {
		t.Errorf("fail_share rise: exit %d, want 1\n%s", code, out.String())
	}
	if code := compareFiles(&out, a, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// Exactly-repeating counts are compared for equality, not by a bound.
func TestCompareExactCounts(t *testing.T) {
	mk := func(tasks float64) *Report {
		r := newReport(1, referenceSeconds, true)
		run := newRun(1, true)
		run.set("bsp.tasks", tasks)
		run.set("bsp.busy_s", tasks/100)
		run.finish()
		r.Workloads = []*WorkloadReport{{Name: "batch-engines", Runs: []*Run{run}}}
		return r
	}
	rows, _ := compareReports(mk(181), mk(181))
	if v := verdictOf(rows, "batch-engines", "bsp.tasks"); v != verdictSame {
		t.Errorf("equal counts: %s, want same", v)
	}
	rows, _ = compareReports(mk(181), mk(182))
	if v := verdictOf(rows, "batch-engines", "bsp.tasks"); v != verdictChanged {
		t.Errorf("differing counts: %s, want changed", v)
	}
	if v := verdictOf(rows, "batch-engines", "bsp.busy_s"); v != "missing" {
		t.Errorf("a per-layer timing has no bound and must not be judged, got %s", v)
	}
}
