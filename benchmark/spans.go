package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one closed interval of host time at a layer boundary. Spans of
// one spec or request share Root, the id of their root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Root   int    `json:"root"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s Span) dur() time.Duration { return s.End - s.Start }

// Tracer keeps the traced pass's spans in memory until the run ends. A
// nil *Tracer records nothing, which is how the untraced in-process
// reference run executes the same code.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// open is a started span; End closes and records it.
type open struct {
	t     *Tracer
	span  Span
	start time.Time
}

// begin starts a span under parent (nil for a root).
func (t *Tracer) begin(name, layer string, parent *open) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{}) // reserve the id in start order
	t.mu.Unlock()
	sp := Span{ID: id, Root: id, Name: name, Layer: layer}
	if parent != nil {
		sp.Parent, sp.Root = parent.span.ID, parent.span.Root
	}
	return &open{t: t, span: sp, start: time.Now()}
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.record(o.start, time.Now())
}

// record closes the span over an interval stamped elsewhere (a runner
// callback, a progress event).
func (o *open) record(start, end time.Time) {
	if o == nil {
		return
	}
	o.span.Start, o.span.End = start.Sub(o.t.epoch), end.Sub(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans[o.span.ID-1] = o.span
	o.t.mu.Unlock()
}

// add records a whole span at once.
func (t *Tracer) add(name, layer string, parent *open, start, end time.Time) {
	t.begin(name, layer, parent).record(start, end)
}

// all returns the recorded spans in start order.
func (t *Tracer) all() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ID != 0 { // a span begun on a path that failed is never recorded
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap each
// other (parallel work) and may stick out of the parent (a stamp taken
// on another goroutine); the union of the children, clipped to the
// parent, is what is subtracted, so self time is never negative.
func selfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// layerSelf sums self time per layer.
func layerSelf(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds): one row (tid) per root span, the layer as the
// category, and id/parent in args so the tree can be rebuilt.
func writeChrome(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := map[string]any{
			"name": s.Name, "cat": s.Layer, "ph": "X", "pid": 1, "tid": s.Root,
			"ts":   float64(s.Start) / 1e3,
			"dur":  float64(s.dur()) / 1e3,
			"args": map[string]int{"id": s.ID, "parent": s.Parent},
		}
		data, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		w.WriteByte('\n')
		w.Write(data)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
