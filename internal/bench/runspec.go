package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"mlbench/internal/datagen"
	"mlbench/internal/randgen"
	"mlbench/internal/trace"
)

// RunSpec is the one serializable description of a benchmark run: which
// figure (or single table cell) to execute, at what scale and seed, under
// which fault schedule, with which trace capture. It is the single way
// runs are configured — the HTTP body accepted by the experiment service,
// the `mlbench run` CLI, and the perf gate all construct a RunSpec
// instead of threading positional parameters.
//
// Identical normalized specs always produce byte-identical rendered
// tables, at any Workers value: Workers and the trace export paths are
// host-side execution concerns and are therefore excluded from CacheKey.
type RunSpec struct {
	// Figure is the figure ID to run (core.FigureIDs / `mlbench list`).
	Figure string `json:"figure"`
	// Row and Col, when both set, narrow the run to a single table cell
	// (the labels RunnableCellRefs reports).
	Row string `json:"row,omitempty"`
	Col string `json:"col,omitempty"`
	// Iterations per chain (default 2).
	Iterations int `json:"iters,omitempty"`
	// ScaleDiv divides the default scale-down factors (default 1).
	ScaleDiv float64 `json:"scalediv,omitempty"`
	// Seed is the simulation seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds host goroutines (0 = GOMAXPROCS). It cannot affect
	// any virtual-clock result and is not part of the cache key.
	Workers int `json:"workers,omitempty"`
	// Shards is the parameter-server shard count used by the fig-ps rows
	// (0 = one shard per machine). It changes the rendered table, so it
	// participates in the cache key.
	Shards int `json:"shards,omitempty"`
	// Staleness is the parameter-server staleness bound s used by the
	// fig-ps rows (0 = synchronous, BSP-equivalent cycles). Cache-keyed.
	Staleness int `json:"staleness,omitempty"`
	// Machines is the fig-scale sweep's top machine count; the sweep's
	// columns run Machines/100, Machines/10, and Machines simulated
	// machines. Only meaningful for fig-scale (Normalize defaults it to
	// 10,000 there; Validate rejects it elsewhere). It changes the
	// rendered table, so it participates in the cache key.
	Machines int `json:"machines,omitempty"`
	// Chunk bounds the elements resident per streamed-partition cursor
	// (0 = sim.DefaultChunkElems). Purely a host-memory knob — results
	// are byte-identical at any value — so, like Workers, it is excluded
	// from the cache key.
	Chunk int `json:"chunk,omitempty"`
	// Sampler is the LDA/HMM token hot-path tier: "dense" (default,
	// byte-identical to the historical O(T) scan), "alias" (exact
	// per-element alias draw), or "mhalias" (cached Metropolis-Hastings).
	// It changes every sampled stream, so it is cache-keyed.
	Sampler string `json:"sampler,omitempty"`
	// Dataset is a datagen scenario name (datagen.ScenarioNames) reshaping
	// every task's synthetic data; empty runs the historical paper-shape
	// generators, byte-identical to before the knob existed. It changes
	// the sampled data, so it is cache-keyed.
	Dataset string `json:"dataset,omitempty"`
	// Faults injects machine crashes and stragglers.
	Faults FaultConfig `json:"faults"`
	// Trace selects trace capture and export.
	Trace TraceSpec `json:"trace"`
}

// TraceSpec is the RunSpec trace section.
type TraceSpec struct {
	// Phases appends each cell's most expensive simulation phases to its
	// notes (`mlbench run -trace`). It changes the rendered table, so it
	// participates in the cache key.
	Phases bool `json:"phases,omitempty"`
	// Out / CSV are export destinations for the Chrome trace-event JSON
	// and CSV renderings. Pure output paths: excluded from the cache key,
	// and ignored by the serving layer (which exposes download endpoints
	// instead).
	Out string `json:"out,omitempty"`
	CSV string `json:"csv,omitempty"`
	// Metrics collects the per-engine/cell/phase metrics registry.
	Metrics bool `json:"metrics,omitempty"`
}

// Enabled reports whether any trace option needs a recorder.
func (t TraceSpec) Enabled() bool {
	return t.Phases || t.Out != "" || t.CSV != "" || t.Metrics
}

// ParseRunSpec decodes a JSON RunSpec strictly: unknown fields are
// rejected so a typo'd knob fails loudly instead of silently running the
// default experiment.
func ParseRunSpec(data []byte) (RunSpec, error) {
	var s RunSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("bench: parse run spec: %w", err)
	}
	return s, nil
}

// Normalize fills defaulted fields, so that a zero-knob spec and a spec
// with the defaults spelled out are the same run — and hash to the same
// CacheKey.
func (s RunSpec) Normalize() RunSpec {
	if s.Iterations == 0 {
		s.Iterations = 2
	}
	if s.ScaleDiv == 0 {
		s.ScaleDiv = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Sampler == "" {
		s.Sampler = randgen.TierDense.String()
	}
	if s.Figure == "fig-scale" && s.Machines == 0 {
		s.Machines = defaultScaleMachines
	}
	if s.Faults.Active() {
		s.Faults = s.Faults.withFaultDefaults()
	}
	return s
}

// tier parses the sampler name. It has passed Validate wherever a figure
// is run, so the parse cannot fail there; an unknown name falls back to
// the zero tier (dense).
func (s RunSpec) tier() randgen.SamplerTier {
	t, _ := randgen.ParseSamplerTier(s.Sampler)
	return t
}

// ErrInvalidSpec matches (errors.Is) every error Validate reports, so
// callers can tell a rejected spec from a failed execution.
var ErrInvalidSpec = errors.New("bench: invalid run spec")

// invalidSpecError is a Validate failure: the actionable message, marked
// as ErrInvalidSpec.
type invalidSpecError struct{ error }

func (invalidSpecError) Is(target error) bool { return target == ErrInvalidSpec }
func (e invalidSpecError) Unwrap() error      { return e.error }

func invalidf(format string, args ...any) error {
	return invalidSpecError{fmt.Errorf(format, args...)}
}

// Validate checks the spec and returns an actionable error matching
// ErrInvalidSpec: unknown figure, row, or column ids are rejected
// together with the list of valid ids rather than silently matching
// nothing.
func (s RunSpec) Validate() error {
	_, err := s.resolve()
	return err
}

// resolve is Validate returning the figure it checked the spec against,
// so ExecuteSpec runs exactly the figure that was validated.
func (s RunSpec) resolve() (*figure, error) {
	if s.Figure == "" {
		return nil, invalidf("bench: run spec needs a figure (valid figures: %s)", strings.Join(FigureIDs(), ", "))
	}
	// Build the figure from the spec's own normalized knobs: Machines
	// changes the column labels, and row/col selection must be checked
	// against the figure ExecuteSpec will actually run.
	f := buildFigure(s.Normalize())
	if f == nil {
		return nil, invalidf("bench: unknown figure %q (valid figures: %s)", s.Figure, strings.Join(FigureIDs(), ", "))
	}
	if (s.Row == "") != (s.Col == "") {
		return nil, invalidf("bench: cell selection needs both row and col (got row=%q col=%q)", s.Row, s.Col)
	}
	if s.Row != "" {
		var row *rowSpec
		var rows []string
		for i := range f.rows {
			rows = append(rows, f.rows[i].label)
			if f.rows[i].label == s.Row {
				row = &f.rows[i]
			}
		}
		if row == nil {
			return nil, invalidf("bench: figure %s has no row %q (valid rows: %s)", s.Figure, s.Row, strings.Join(rows, ", "))
		}
		var cols []string
		found := false
		for _, c := range row.cells {
			cols = append(cols, c.col)
			if c.col == s.Col {
				found = true
			}
		}
		if !found {
			return nil, invalidf("bench: figure %s row %q has no column %q (valid columns: %s)", s.Figure, s.Row, s.Col, strings.Join(cols, ", "))
		}
	}
	if s.Iterations < 0 {
		return nil, invalidf("bench: iterations must be >= 0, got %d", s.Iterations)
	}
	if s.ScaleDiv < 0 {
		return nil, invalidf("bench: scalediv must be >= 0, got %v", s.ScaleDiv)
	}
	if s.Workers < 0 {
		return nil, invalidf("bench: workers must be >= 0, got %d", s.Workers)
	}
	if s.Shards < 0 {
		return nil, invalidf("bench: shards must be >= 0 (0 = one per machine), got %d", s.Shards)
	}
	if s.Staleness < 0 {
		return nil, invalidf("bench: staleness must be >= 0 (0 = synchronous), got %d", s.Staleness)
	}
	if s.Machines != 0 && s.Figure != "fig-scale" {
		return nil, invalidf("bench: machines only applies to fig-scale, got machines=%d for figure %q", s.Machines, s.Figure)
	}
	if s.Machines != 0 && s.Machines < 100 {
		return nil, invalidf("bench: machines must be >= 100 (the sweep's smallest column is machines/100), got %d", s.Machines)
	}
	if s.Chunk < 0 {
		return nil, invalidf("bench: chunk must be >= 0 (0 = default chunk size), got %d", s.Chunk)
	}
	if _, err := randgen.ParseSamplerTier(s.Sampler); err != nil {
		return nil, invalidf("bench: %w", err)
	}
	if err := datagen.ParseScenario(s.Dataset); err != nil {
		return nil, invalidf("bench: %w", err)
	}
	if s.Faults.Failures < 0 {
		return nil, invalidf("bench: failures must be >= 0, got %d", s.Faults.Failures)
	}
	if s.Faults.Straggle != 0 && s.Faults.Straggle < 1 {
		return nil, invalidf("bench: straggle must be 0 (off) or >= 1, got %v", s.Faults.Straggle)
	}
	return f, nil
}

// keyDoc is the canonical cache-key document: exactly the normalized
// fields that can influence the bytes of the rendered table, in a fixed
// order. Workers and the trace export paths are deliberately absent —
// results are byte-identical at any worker count, and export paths do
// not change what is computed. Bump keyVersion when this set changes.
type keyDoc struct {
	V            int     `json:"v"`
	Figure       string  `json:"figure"`
	Row          string  `json:"row"`
	Col          string  `json:"col"`
	Iters        int     `json:"iters"`
	ScaleDiv     float64 `json:"scalediv"`
	Seed         uint64  `json:"seed"`
	Failures     int     `json:"failures"`
	FailAt       float64 `json:"failat"`
	Straggle     float64 `json:"straggle"`
	Ckpt         int     `json:"ckpt"`
	Snap         int     `json:"snap"`
	Shards       int     `json:"shards"`
	Staleness    int     `json:"staleness"`
	Machines     int     `json:"machines"`
	Sampler      string  `json:"sampler"`
	Dataset      string  `json:"dataset"`
	TracePhases  bool    `json:"trace_phases"`
	TraceMetrics bool    `json:"trace_metrics"`
}

const keyVersion = 5

// CacheKey returns the canonical content hash of the spec: the SHA-256 of
// a fixed-order JSON document over the normalized result-affecting
// fields. Two specs with equal keys always produce byte-identical
// rendered tables, which is what makes request coalescing and result
// caching sound.
func (s RunSpec) CacheKey() string {
	n := s.Normalize()
	doc := keyDoc{
		V:        keyVersion,
		Figure:   n.Figure,
		Row:      n.Row,
		Col:      n.Col,
		Iters:    n.Iterations,
		ScaleDiv: n.ScaleDiv,
		Seed:     n.Seed,
		Failures: n.Faults.Failures, FailAt: n.Faults.FailAt, Straggle: n.Faults.Straggle,
		Ckpt: n.Faults.BSPCheckpointEvery, Snap: n.Faults.GASSnapshotEvery,
		Shards: n.Shards, Staleness: n.Staleness, Machines: n.Machines,
		Sampler: n.Sampler, Dataset: n.Dataset,
		TracePhases: n.Trace.Phases, TraceMetrics: n.Trace.Metrics,
	}
	data, err := json.Marshal(doc)
	if err != nil { // fixed struct of scalars: cannot fail
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ExecOptions is the runtime wiring for ExecuteSpec: everything a caller
// may attach to a run that is not part of the run's identity.
type ExecOptions struct {
	// Recorder receives the structured trace. When nil and the spec
	// enables any trace option, ExecuteSpec creates one; the recorder
	// actually used is returned in the SpecResult.
	Recorder *trace.Recorder
	// Progress, when non-nil, receives a phase-barrier event stream of
	// the measured runs (not the clean probe runs).
	Progress func(ProgressEvent)
	// SkipExports suppresses the spec's Trace.Out / Trace.CSV file writes;
	// the serving layer sets it and exposes download endpoints instead.
	SkipExports bool
}

// SpecResult is the outcome of one executed spec.
type SpecResult struct {
	// Spec is the normalized spec that ran.
	Spec RunSpec
	// Table is the run's rendered figure (a 1x1 table for cell runs).
	Table *Table
	// Recorder holds the run's trace when tracing was enabled or a
	// recorder was supplied; nil otherwise.
	Recorder *trace.Recorder
}

// ProgressEvent is one phase-barrier progress sample of a running cell.
type ProgressEvent struct {
	// Cell is the "figure/row/col" label of the running cell.
	Cell string `json:"cell"`
	// Phase is the simulation phase that just completed.
	Phase string `json:"phase"`
	// ClockSec is the cell's virtual clock after the barrier.
	ClockSec float64 `json:"clock_sec"`
}

// ExecuteSpec validates, normalizes, and runs a spec. It is the single
// execution path shared by the CLI, the experiment service, and the perf
// gate; the returned table's bytes depend only on the spec's CacheKey
// fields, never on ctx, the worker count, or the attached sinks.
func ExecuteSpec(ctx context.Context, spec RunSpec, ex ExecOptions) (*SpecResult, error) {
	spec = spec.Normalize()
	f, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	if ex.Recorder == nil && spec.Trace.Enabled() {
		ex.Recorder = trace.NewRecorder()
	}
	t, err := f.run(ctx, spec, ex)
	if err != nil {
		return nil, err
	}
	if !ex.SkipExports {
		if spec.Trace.Out != "" {
			if err := trace.WriteChromeFile(spec.Trace.Out, ex.Recorder); err != nil {
				return nil, fmt.Errorf("bench: trace export: %w", err)
			}
		}
		if spec.Trace.CSV != "" {
			if err := trace.WriteCSVFile(spec.Trace.CSV, ex.Recorder); err != nil {
				return nil, fmt.Errorf("bench: trace CSV export: %w", err)
			}
		}
	}
	return &SpecResult{Spec: spec, Table: t, Recorder: ex.Recorder}, nil
}
