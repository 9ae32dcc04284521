// Package trace is the simulator's observability layer: a structured
// span/event subsystem on the virtual clock, plus a metrics registry of
// counters keyed by engine, benchmark cell, and phase.
//
// The paper explains every headline number — the Table 4-8 cells, the
// "Fail" entries, Hadoop's per-iteration overhead — by appeal to *where
// time goes*: shuffle versus compute versus barrier wait. A Recorder
// captures exactly that attribution for a simulated run: every
// sim.RunPhase emits a phase span and per-machine task spans, every
// framework launch overhead emits an overhead span, and the
// fault-injection path (internal/faults via internal/sim) emits crash
// events plus lost-work and recovery spans. Engines contribute counters
// (bytes shuffled, messages sent) through the sim.Meter, which buffers
// them per task and replays them in global task
// order at the phase barrier — the same discipline as network sends — so
// a recorded trace is byte-identical at any host worker count.
//
// Exporters render a Recorder as Chrome trace-event JSON (loadable in
// chrome://tracing or Perfetto), as CSV, and as the per-cell text summary
// behind the mlbench -trace flag.
//
// # Span categories
//
// Spans carry a category that fixes their accounting role:
//
//   - "phase":    one sim.RunPhase barrier; cluster-wide (Machine == -1).
//   - "overhead": one named Cluster.AdvanceNamed charge (job launches,
//     superstep launch latency, fault detection).
//   - "task":     one machine's busy interval inside a phase.
//   - "fault":    lost-work and recovery intervals around an observed
//     crash. These OVERLAP phase/overhead spans and are excluded from
//     the clock identity below.
//
// The clock identity: for any cell, the durations of its "phase" and
// "overhead" spans sum to the cluster's final virtual clock. "task" and
// "fault" spans are attribution detail inside that envelope.
package trace

// Arg is one numeric annotation on a span or event.
type Arg struct {
	Key string
	Val float64
}

// A is shorthand for constructing an Arg.
func A(key string, val float64) Arg { return Arg{Key: key, Val: val} }

// Span is one closed interval of virtual time.
type Span struct {
	Cell    string  // benchmark cell scope, e.g. "fig1a/SimSQL/10d-5m"
	Name    string  // phase or overhead name
	Cat     string  // "phase", "overhead", "task", "fault"
	Machine int     // simulated machine index; -1 = cluster-wide
	Start   float64 // virtual seconds
	Dur     float64 // virtual seconds
	Args    []Arg
}

// Arg returns the named annotation (0 when absent).
func (s Span) Arg(key string) float64 {
	for _, a := range s.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// Event is one instant on the virtual clock.
type Event struct {
	Cell    string
	Name    string // e.g. "crash", "straggle", "broadcast"
	Kind    string // event type: "fault", "comm", ...
	Machine int    // -1 = cluster-wide
	At      float64
	Args    []Arg
}

// Recorder accumulates the spans, events, and metrics of one or more
// benchmark cells. All recording happens on the host goroutine that owns
// the cluster — at phase barriers, in deterministic order — so a Recorder
// needs no locking and two runs with equal inputs produce byte-identical
// exports regardless of host parallelism. Tasks running concurrently on
// worker goroutines must never touch the Recorder directly; they emit
// through the sim.Meter, which buffers until the barrier.
type Recorder struct {
	cell    string
	engine  string
	spans   []Span
	events  []Event
	metrics *Metrics
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{metrics: NewMetrics()}
}

// BeginCell opens a new cell scope: subsequent spans, events, and metric
// samples are attributed to it. The engine label resets with the cell
// (each benchmark cell runs one engine).
func (r *Recorder) BeginCell(cell string) {
	r.cell = cell
	r.engine = ""
}

// SetEngine tags subsequent metric samples with the running platform
// engine ("spark", "simsql", "graphlab", "giraph"). Engines call this at
// construction through sim.Cluster.SetEngineLabel.
func (r *Recorder) SetEngine(name string) { r.engine = name }

// AddSpan records one closed interval in the current cell scope.
func (r *Recorder) AddSpan(name, cat string, machine int, start, dur float64, args ...Arg) {
	r.spans = append(r.spans, Span{
		Cell: r.cell, Name: name, Cat: cat, Machine: machine,
		Start: start, Dur: dur, Args: args,
	})
}

// AddEvent records one instant in the current cell scope.
func (r *Recorder) AddEvent(name, kind string, machine int, at float64, args ...Arg) {
	r.events = append(r.events, Event{
		Cell: r.cell, Name: name, Kind: kind, Machine: machine,
		At: at, Args: args,
	})
}

// Count adds v to the counter keyed by the current engine and cell, the
// given phase, and name.
func (r *Recorder) Count(phase, name string, v float64) {
	r.metrics.Add(Key{Engine: r.engine, Cell: r.cell, Phase: phase, Name: name}, v)
}

// Metrics returns the recorder's registry.
func (r *Recorder) Metrics() *Metrics { return r.metrics }

// Spans returns every recorded span, in recording order.
func (r *Recorder) Spans() []Span { return r.spans }

// Events returns every recorded event, in recording order.
func (r *Recorder) Events() []Event { return r.events }

// CellSpans returns the spans of one cell, in recording order.
func (r *Recorder) CellSpans(cell string) []Span {
	var out []Span
	for _, s := range r.spans {
		if s.Cell == cell {
			out = append(out, s)
		}
	}
	return out
}

// CellEvents returns the events of one cell, in recording order.
func (r *Recorder) CellEvents(cell string) []Event {
	var out []Event
	for _, e := range r.events {
		if e.Cell == cell {
			out = append(out, e)
		}
	}
	return out
}

// Cells returns the distinct cell scopes in first-appearance order.
func (r *Recorder) Cells() []string {
	seen := map[string]bool{}
	var out []string
	add := func(c string) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, s := range r.spans {
		add(s.Cell)
	}
	for _, e := range r.events {
		add(e.Cell)
	}
	return out
}

// ClockSum returns the sum of a cell's "phase" and "overhead" span
// durations — by the package's clock identity, the cell's final virtual
// clock. Tests use it to pin the trace to the benchmark tables.
func (r *Recorder) ClockSum(cell string) float64 {
	var total float64
	for _, s := range r.spans {
		if s.Cell != cell {
			continue
		}
		if s.Cat == CatPhase || s.Cat == CatOverhead {
			total += s.Dur
		}
	}
	return total
}

// Span categories (see the package comment for the accounting roles).
const (
	CatPhase    = "phase"
	CatOverhead = "overhead"
	CatTask     = "task"
	CatFault    = "fault"
)

// Event kinds.
const (
	KindFault = "fault"
	KindComm  = "comm"
)
