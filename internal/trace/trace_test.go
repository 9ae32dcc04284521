package trace

import (
	"reflect"
	"testing"
)

func sampleRecorder() *Recorder {
	r := NewRecorder()
	r.BeginCell("figX/RowA/colA")
	r.SetEngine("spark")
	r.AddSpan("load", CatPhase, -1, 0, 2.5, A("comm_sec", 0.5), A("tasks", 4))
	r.AddSpan("load", CatTask, 0, 0, 2.0, A("compute_sec", 1.5))
	r.AddSpan("launch", CatOverhead, -1, 2.5, 0.5)
	r.AddSpan("recovery", CatFault, 1, 1.0, 0.75)
	r.AddEvent("crash", KindFault, 1, 1.0)
	r.Count("load", "bytes_sent", 100)
	r.Count("load", "bytes_sent", 50)
	r.BeginCell("figX/RowB/colA")
	r.SetEngine("giraph")
	r.AddSpan("superstep-0", CatPhase, -1, 0, 1.25)
	r.Count("superstep-0", "messages", 12)
	return r
}

func TestRecorderScoping(t *testing.T) {
	r := sampleRecorder()
	if got := r.Cells(); !reflect.DeepEqual(got, []string{"figX/RowA/colA", "figX/RowB/colA"}) {
		t.Fatalf("Cells() = %v", got)
	}
	if n := len(r.CellSpans("figX/RowA/colA")); n != 4 {
		t.Errorf("cell A spans = %d, want 4", n)
	}
	if n := len(r.CellSpans("figX/RowB/colA")); n != 1 {
		t.Errorf("cell B spans = %d, want 1", n)
	}
	if n := len(r.CellEvents("figX/RowA/colA")); n != 1 {
		t.Errorf("cell A events = %d, want 1", n)
	}
	// BeginCell resets the engine label: cell B's counter is giraph's.
	if v := r.Metrics().counters[Key{Engine: "giraph", Cell: "figX/RowB/colA", Phase: "superstep-0", Name: "messages"}]; v != 12 {
		t.Errorf("giraph messages = %v, want 12", v)
	}
	if v := r.Metrics().counters[Key{Engine: "spark", Cell: "figX/RowA/colA", Phase: "load", Name: "bytes_sent"}]; v != 150 {
		t.Errorf("spark bytes_sent = %v, want 150 (counters accumulate)", v)
	}
}

func TestClockSumExcludesTaskAndFaultSpans(t *testing.T) {
	r := sampleRecorder()
	// phase 2.5 + overhead 0.5; the task and fault spans overlap and are
	// excluded from the clock identity.
	if got := r.ClockSum("figX/RowA/colA"); got != 3.0 {
		t.Errorf("ClockSum = %v, want 3.0", got)
	}
	if got := r.ClockSum("figX/RowB/colA"); got != 1.25 {
		t.Errorf("ClockSum = %v, want 1.25", got)
	}
}

func TestSpanArgLookup(t *testing.T) {
	s := Span{Args: []Arg{A("x", 1.5), A("y", -2)}}
	if s.Arg("x") != 1.5 || s.Arg("y") != -2 || s.Arg("missing") != 0 {
		t.Errorf("Arg lookup wrong: %v %v %v", s.Arg("x"), s.Arg("y"), s.Arg("missing"))
	}
}

func TestMetricsSnapshotDeterministic(t *testing.T) {
	m := NewMetrics()
	m.Add(Key{Engine: "b", Cell: "c1", Phase: "p", Name: "n"}, 1)
	m.Add(Key{Engine: "a", Cell: "c1", Phase: "p", Name: "n"}, 2)
	m.Add(Key{Engine: "b", Cell: "c0", Phase: "p", Name: "n"}, 3)
	s1 := m.Snapshot()
	s2 := m.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("Snapshot not deterministic")
	}
	// Sorted by cell, then engine.
	if s1[0].Cell != "c0" || s1[1].Engine != "a" || s1[2].Engine != "b" {
		t.Errorf("snapshot order wrong: %+v", s1)
	}
}

func TestMetricsTotals(t *testing.T) {
	m := NewMetrics()
	m.Add(Key{Engine: "a", Cell: "c1", Phase: "p1", Name: "bytes"}, 10)
	m.Add(Key{Engine: "a", Cell: "c1", Phase: "p2", Name: "bytes"}, 5)
	m.Add(Key{Engine: "b", Cell: "c2", Phase: "p1", Name: "bytes"}, 2)
	m.Add(Key{Engine: "b", Cell: "c2", Phase: "p1", Name: "rows"}, 99)
	if v := m.Total("bytes"); v != 17 {
		t.Errorf("Total(bytes) = %v, want 17", v)
	}
	if v := m.Total("missing"); v != 0 {
		t.Errorf("Total(missing) = %v, want 0", v)
	}
}

// Render is the `mlbench run -metrics` output: one aligned counter line
// per sample, in Snapshot order.
func TestMetricsRenderFormat(t *testing.T) {
	m := NewMetrics()
	m.Add(Key{Engine: "spark", Cell: "fig1a/Spark/10d-5m", Phase: "load", Name: "bytes_sent"}, 150)
	m.Add(Key{Engine: "giraph", Cell: "fig1a/Giraph/10d-5m", Phase: "superstep-0", Name: "messages"}, 12.5)
	want := "counter fig1a/Giraph/10d-5m                          giraph     superstep-0/messages         12.5\n" +
		"counter fig1a/Spark/10d-5m                           spark      load/bytes_sent              150\n"
	if got := m.Render(); got != want {
		t.Errorf("Render =\n%q\nwant\n%q", got, want)
	}
}

// A cell that recorded only events (say, a crash before its first
// phase) is still a cell of the trace, listed after the span cells.
func TestCellsIncludeEventOnlyCells(t *testing.T) {
	r := NewRecorder()
	r.BeginCell("b")
	r.AddEvent("crash", KindFault, 0, 1)
	r.BeginCell("a")
	r.AddSpan("p", CatPhase, -1, 0, 1)
	r.AddEvent("crash", KindFault, 1, 0.5)
	if got := r.Cells(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Cells() = %v, want [a b]", got)
	}
}
