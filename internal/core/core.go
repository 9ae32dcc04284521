// Package core is the public face of the benchmark — the paper's primary
// contribution is the benchmark itself ("we hope that our efforts will
// grow into a widely used, standard benchmark for this sort of
// platform"), and this package exposes it as a programmatic API: one
// serializable description of a run (RunSpec) and one way to execute it
// (Execute), covering the five ML implementation tasks on the five
// platform engines and every table of the paper's evaluation.
//
// Quick use:
//
//	spec := core.RunSpec{Figure: "fig1a", Iterations: 2}
//	res, err := core.Execute(ctx, spec, core.ExecOptions{})
//	fmt.Println(res.Table.Render())
//
// Observability: set RunSpec.Trace (Out: Chrome trace-event JSON for
// chrome://tracing / Perfetto, CSV, Metrics, Phases) to capture a
// structured span/event/metric view of a run, or supply your own
// ExecOptions.Recorder (see internal/trace) to aggregate several figures
// into one export. Traces are deterministic: the same spec produces
// byte-identical files at any RunSpec.Workers value.
//
// Individual experiments are available through the task packages
// (internal/tasks/...); the simulated platform substrates live in
// internal/dataflow (Spark), internal/relational (SimSQL), internal/gas
// (GraphLab), internal/bsp (Giraph) and internal/psengine (parameter
// server), all on top of the virtual cluster in internal/sim.
package core

import (
	"context"

	"mlbench/internal/bench"
)

// Table is a rendered figure with measured and paper values.
type Table = bench.Table

// FaultConfig configures deterministic fault injection — machine crashes,
// stragglers, and the engines' checkpointing policies; see
// bench.FaultConfig. Set it on RunSpec.Faults.
type FaultConfig = bench.FaultConfig

// RunSpec is the serializable description of one run — figure or single
// cell, scale, seed, fault schedule, trace capture — with JSON round-trip
// (ParseRunSpec), validation, and a canonical CacheKey. It is the single
// way runs are configured: the `mlbench run` CLI, the experiment
// service's HTTP body, and the perf gate all construct one. See
// bench.RunSpec.
type RunSpec = bench.RunSpec

// TraceSpec is the RunSpec trace section; see bench.TraceSpec.
type TraceSpec = bench.TraceSpec

// ExecOptions is the runtime wiring (recorder, progress sink) attached to
// an Execute call; see bench.ExecOptions.
type ExecOptions = bench.ExecOptions

// SpecResult is the outcome of one executed spec; see bench.SpecResult.
type SpecResult = bench.SpecResult

// ProgressEvent is one phase-barrier progress sample; see
// bench.ProgressEvent.
type ProgressEvent = bench.ProgressEvent

// ParseRunSpec decodes a JSON RunSpec strictly (unknown fields are
// rejected with an actionable error).
func ParseRunSpec(data []byte) (RunSpec, error) { return bench.ParseRunSpec(data) }

// Execute validates, normalizes, and runs a spec; ctx cancels it
// mid-phase. The rendered table depends only on the spec's CacheKey
// fields — never on ctx, Workers, or the attached sinks — which is what
// lets the serving layer coalesce and cache runs byte-identically.
func Execute(ctx context.Context, spec RunSpec, ex ExecOptions) (*SpecResult, error) {
	return bench.ExecuteSpec(ctx, spec, ex)
}

// FigureIDs lists every runnable figure of the paper's evaluation, in
// paper order.
func FigureIDs() []string { return bench.FigureIDs() }
