package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const ms = time.Millisecond

func span(id, parent int, layer string, start, end time.Duration) Span {
	root := id
	if parent != 0 {
		root = 1
	}
	return Span{ID: id, Parent: parent, Root: root, Name: layer, Layer: layer, Start: start, End: end}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		span(1, 0, "client", 0, 100*ms),      // root
		span(2, 1, "serve", 10*ms, 40*ms),    // child
		span(3, 1, "serve", 30*ms, 60*ms),    // overlaps child 2: union is 10..60
		span(4, 1, "bench", 70*ms, 120*ms),   // sticks out of the root: clipped at 100
		span(5, 4, "engine", 80*ms, 90*ms),   // grandchild: only its own parent loses it
		span(6, 1, "serve", 20*ms, 25*ms),    // wholly inside child 2: adds nothing
		span(7, 0, "client", 200*ms, 210*ms), // a second root with no children
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - (50*ms + 30*ms), // 10..60 and 70..100 are covered
		2: 30 * ms,
		3: 30 * ms,
		4: 50*ms - 10*ms,
		5: 10 * ms,
		6: 5 * ms,
		7: 10 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byLayer := layerSelf(spans)
	if got, want := byLayer["serve"], 65*ms; got != want {
		t.Errorf("serve layer self time = %v, want %v", got, want)
	}
	if got, want := byLayer["client"], 30*ms; got != want {
		t.Errorf("client layer self time = %v, want %v", got, want)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	// A child stamped on another goroutine can cover more than its parent.
	spans := []Span{span(1, 0, "a", 10*ms, 20*ms), span(2, 1, "b", 0, 50*ms)}
	if got := selfTimes(spans)[1]; got != 0 {
		t.Errorf("self time = %v, want 0", got)
	}
}

func TestTracerTreeAndNilTracer(t *testing.T) {
	var off *Tracer
	off.begin("x", "y", nil).end() // tracing off: every call is a no-op
	off.add("x", "y", nil, time.Now(), time.Now())
	if got := off.all(); got != nil {
		t.Errorf("nil tracer returned spans: %v", got)
	}

	tr := newTracer()
	root := tr.begin("request", "client", nil)
	child := tr.begin("POST", "serve", root)
	tr.begin("abandoned", "serve", root) // begun on a path that failed: never ended
	child.end()
	root.end()
	spans := tr.all()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (the abandoned one is dropped): %+v", len(spans), spans)
	}
	if spans[0].Name != "request" || spans[0].Parent != 0 || spans[0].Root != spans[0].ID {
		t.Errorf("root span wrong: %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID || spans[1].Root != spans[0].ID {
		t.Errorf("child does not share the root's id: %+v", spans[1])
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []Span{span(1, 0, "client", 0, 3*ms), span(2, 1, "serve", ms, 2*ms)}
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, data)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Cat != "serve" || ev.Ts != 1000 || ev.Dur != 1000 || ev.Tid != 1 || ev.Args["parent"] != 1 {
		t.Errorf("child event wrong: %+v", ev)
	}
}
