package bench

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// runTinyRecoveryFigure runs a one-row cut of fig7 small enough for
// tests under the normalized spec.
func runTinyRecoveryFigure(t *testing.T, s RunSpec, platform string, machines int, fc FaultConfig) *Table {
	t.Helper()
	s = s.Normalize()
	f := &figure{
		id:    "figtest",
		title: "recovery test figure",
		rows: []rowSpec{
			{label: platform, cells: []cellSpec{
				{col: "c", machines: machines, scale: gmmScale(10), run: fig7RunFn(s, platform), faults: &fc},
			}},
		},
	}
	tbl, err := f.run(context.Background(), s, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestFaultScheduleIsDeterministic(t *testing.T) {
	fc := FaultConfig{Failures: 3}.withFaultDefaults()
	a := fc.schedule(100, 60, 2, 20, 7)
	b := fc.schedule(100, 60, 2, 20, 7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same inputs gave different schedules:\n%v\n%v", a, b)
	}
	if len(a.Crashes()) != 3 {
		t.Fatalf("crashes = %d, want 3", len(a.Crashes()))
	}
	for _, e := range a.Crashes() {
		if e.Machine == 0 {
			t.Error("machine 0 (driver) must be spared")
		}
		if e.At < 100 {
			t.Errorf("crash at %v precedes the measured window", e.At)
		}
	}
}

func TestFaultInjectionTablesAreByteIdentical(t *testing.T) {
	s := RunSpec{Iterations: 1, Seed: 3, Faults: FaultConfig{Failures: 1}}
	fc := s.Faults.withFaultDefaults()
	run := func() string {
		return runTinyRecoveryFigure(t, s, "spark", 4, fc).Render()
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("identical seed and schedule gave different tables:\n%s\n---\n%s", first, second)
	}
}

func TestFaultInjectionRecordsRecoveryNotes(t *testing.T) {
	s := RunSpec{Iterations: 1, Seed: 3}
	clean := runTinyRecoveryFigure(t, s, "giraph", 4, FaultConfig{})
	faulty := runTinyRecoveryFigure(t, s, "giraph", 4, FaultConfig{Failures: 1})
	cc, fc := clean.Cells["giraph"]["c"], faulty.Cells["giraph"]["c"]
	if cc.Failed || fc.Failed {
		t.Fatalf("cells failed: clean %+v faulty %+v", cc, fc)
	}
	var noted bool
	for _, n := range fc.Notes {
		if strings.Contains(n, "fault: crash") && strings.Contains(n, "recovery") {
			noted = true
		}
	}
	if !noted {
		t.Errorf("no fault note recorded: %v", fc.Notes)
	}
	if fc.IterSec <= cc.IterSec {
		t.Errorf("crash did not slow the run: faulty %v <= clean %v", fc.IterSec, cc.IterSec)
	}
	for _, n := range cc.Notes {
		if strings.Contains(n, "fault:") {
			t.Errorf("clean run has a fault note: %q", n)
		}
	}
}

func TestRecoveryFiguresCoverAllPlatforms(t *testing.T) {
	f := buildFigure(RunSpec{Figure: "fig7"}.Normalize())
	if f == nil {
		t.Fatal("fig7 not registered")
	}
	if len(f.rows) != 4 {
		t.Fatalf("fig7 rows = %d, want 4 platforms", len(f.rows))
	}
	for _, r := range f.rows {
		if len(r.cells) != 3 {
			t.Errorf("row %s has %d cells, want 5/20/100 machines", r.label, len(r.cells))
		}
		for _, c := range r.cells {
			if c.faults == nil || !c.faults.Active() {
				t.Errorf("row %s col %s has no active fault config", r.label, c.col)
			}
			if c.paperIter != "" {
				t.Errorf("row %s col %s has a paper value %q; the paper never injected failures", r.label, c.col, c.paperIter)
			}
		}
	}
}
