// Command mlbench regenerates the paper's evaluation tables (Figures 1-6
// of "A Comparison of Platforms for Implementing and Running Very Large
// Scale Machine Learning Algorithms", SIGMOD 2014) on the simulated
// cluster, printing measured values next to the paper's published ones.
// The fig7 family goes beyond the paper: it injects machine crashes and
// stragglers and measures each platform's recovery.
//
// Usage:
//
//	mlbench run [-figure fig1a] [-row "Spark (Java)" -col 5m] [-iters 2]
//	mlbench run -spec spec.json              # run a serialized core.RunSpec
//	mlbench run -figure fig2 -failures 2 -failat 0.25 -straggle 4
//	mlbench run -figure fig1a -traceout fig1a.json   # Chrome trace-event JSON
//	mlbench serve -addr 127.0.0.1:8080       # the experiment service (mlbenchd)
//	mlbench load -profile profiles/smoke.yaml -target http://127.0.0.1:8080
//	mlbench gen -spec datasets/smoke.yaml -out corpus.json   # synthetic dataset
//	mlbench list                             # available figures
//	mlbench loc                              # lines-of-code table
//
// Every run is a core.RunSpec — the same JSON document the experiment
// service accepts over HTTP — so a CLI invocation and a served request
// with equal specs produce byte-identical tables.
//
// The pre-subcommand flat form (`mlbench -figure fig1a ...`) was removed
// after its deprecation period; flat invocations exit 2 with a pointer
// to the equivalent subcommand.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mlbench/internal/bench"
	"mlbench/internal/core"
	"mlbench/internal/serve"
	"mlbench/internal/trace"
)

func main() {
	os.Exit(dispatch(os.Args[1:]))
}

// dispatch runs the subcommand named by args[0] and returns the exit code.
func dispatch(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	if msg, removed := flatFormError(args); removed {
		fmt.Fprintln(os.Stderr, msg)
		return 2
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "run":
		return cmdRun(args)
	case "serve":
		return serve.Main(args)
	case "load":
		return cmdLoad(args)
	case "gen":
		return cmdGen(args)
	case "list":
		return cmdList(args)
	case "loc":
		return cmdLoc(args)
	case "help", "-h", "--help":
		usage(os.Stdout)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "mlbench: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `mlbench — the SIGMOD 2014 platform-comparison benchmark on a simulated cluster

Commands:
  run    run figures (or one cell) and print the virtual-clock tables
  serve  long-running experiment service (HTTP/JSON + SSE; see cmd/mlbenchd)
  load   replay a time-compressed traffic profile against mlbenchd, judge SLOs
  gen    generate a synthetic dataset from a spec file or named scenario
  list   list the available figures
  loc    print the lines-of-code table (the paper's LoC column analogue)

Run 'mlbench <command> -h' for that command's flags.
`)
}

// specFlags registers the RunSpec-shaped flags of `run` and returns a
// builder that assembles the spec after parsing.
func specFlags(fs *flag.FlagSet) func() core.RunSpec {
	figure := fs.String("figure", "", "figure id to run (fig1a..fig6 from the paper; fig7, fig7b, fig7c measure failure recovery; fig-ps adds the parameter-server engine head-to-head); empty = all")
	row := fs.String("row", "", "with -col, narrow the run to a single table cell (row label)")
	col := fs.String("col", "", "with -row, narrow the run to a single table cell (column label)")
	iters := fs.Int("iters", 2, "Gibbs iterations per experiment (the paper averaged the first five)")
	scaleDiv := fs.Float64("scalediv", 1, "divide the default scale-down factors by this (more real data, slower)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "host goroutines running simulated machines concurrently (0 = GOMAXPROCS, 1 = sequential); results are identical for any value")
	tracef := fs.Bool("trace", false, "print each cell's most expensive simulation phases (time, comm share, tasks)")
	traceOut := fs.String("traceout", "", "write the structured run trace as Chrome trace-event JSON to this file (chrome://tracing / Perfetto)")
	traceCSV := fs.String("tracecsv", "", "write the structured run trace as CSV to this file")
	metrics := fs.Bool("metrics", false, "print the per-engine/cell/phase metrics registry after the tables")
	failures := fs.Int("failures", 0, "machine crashes to inject into every cell (deterministic from -seed); each engine recovers its own way: MR task retry, Spark lineage recompute, Giraph checkpoint rollback, GraphLab snapshot restore, parameter-server shard re-replication from the hot standby")
	failAt := fs.Float64("failat", 0.5, "iteration offset of the first crash (0.5 = mid-first-iteration)")
	straggle := fs.Float64("straggle", 0, "slow one machine by this factor for the whole run (>1 to enable)")
	ckpt := fs.Int("ckpt", 0, "Giraph checkpoint interval in supersteps (0 = default 3 under faults, <0 = off)")
	snap := fs.Int("snap", 0, "GraphLab snapshot interval in rounds (0 = default 3 under faults, <0 = off)")
	sampler := fs.String("sampler", "", "LDA/HMM token sampler tier: dense (default, the historical O(T) scan), alias (exact per-token alias draw), or mhalias (cached Metropolis-Hastings alias kernel, LightLDA-style)")
	shards := fs.Int("shards", 0, "parameter-server shard count for fig-ps (0 = one shard per machine)")
	staleness := fs.Int("staleness", 0, "parameter-server staleness bound s for fig-ps (0 = synchronous, BSP-equivalent cycles)")
	dataset := fs.String("dataset", "", "datagen scenario reshaping every task's synthetic data (skew-light, skew-heavy, imbal-2x, imbal-8x); empty = the paper's shapes")
	machines := fs.Int("machines", 0, "fig-scale top machine count; the sweep's columns run machines/100, machines/10, and machines simulated machines (0 = 10000)")
	chunk := fs.Int("chunk", 0, "elements resident per streamed-partition cursor (0 = default); like -workers, a host-memory knob that cannot change any result")
	return func() core.RunSpec {
		return core.RunSpec{
			Figure:     *figure,
			Row:        *row,
			Col:        *col,
			Iterations: *iters,
			ScaleDiv:   *scaleDiv,
			Seed:       *seed,
			Workers:    *workers,
			Machines:   *machines,
			Chunk:      *chunk,
			Sampler:    *sampler,
			Shards:     *shards,
			Staleness:  *staleness,
			Dataset:    *dataset,
			Faults: core.FaultConfig{Failures: *failures, FailAt: *failAt, Straggle: *straggle,
				BSPCheckpointEvery: *ckpt, GASSnapshotEvery: *snap},
			Trace: core.TraceSpec{Phases: *tracef, Out: *traceOut, CSV: *traceCSV, Metrics: *metrics},
		}
	}
}

func cmdRun(args []string) int {
	specs, agree, md, code := parseRun(args)
	if specs == nil {
		return code
	}
	return executeRuns(specs, agree, md)
}

// parseRun parses `mlbench run`'s arguments into the specs to execute:
// the one the -spec file holds, or the flags' spec, fanned out over
// every figure when -figure is empty. specs is nil when nothing should
// run; code is then the exit status, and the reason is on stderr.
func parseRun(args []string) (specs []core.RunSpec, agree float64, md bool, code int) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	buildSpec := specFlags(fs)
	specFile := fs.String("spec", "", "read the run's core.RunSpec from this JSON file ('-' = stdin) instead of the flags")
	agreeF := fs.Float64("agree", 3, "agreement factor: cells within this multiple of the paper's value count as matching")
	mdF := fs.Bool("md", false, "render tables as GitHub markdown (for EXPERIMENTS.md)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0, false, 0
		}
		return nil, 0, false, 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "run: unexpected arguments: %v\n", fs.Args())
		return nil, 0, false, 2
	}

	if *specFile != "" {
		data, err := readSpecFile(*specFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "run: %v\n", err)
			return nil, 0, false, 1
		}
		spec, err := core.ParseRunSpec(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "run: %v\n", err)
			return nil, 0, false, 1
		}
		specs = []core.RunSpec{spec}
	} else {
		spec := buildSpec()
		if spec.Figure == "" {
			for _, id := range core.FigureIDs() {
				s := spec
				s.Figure = id
				specs = append(specs, s)
			}
		} else {
			specs = []core.RunSpec{spec}
		}
	}
	return specs, *agreeF, *mdF, 0
}

func readSpecFile(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// executeRuns runs each spec through core.Execute (the exact code path
// the experiment service uses) and prints tables, agreement, and any
// requested trace artifacts. A single command-owned recorder aggregates
// every figure that ran into one export (each cell is its own trace
// process).
func executeRuns(specs []core.RunSpec, agree float64, md bool) int {
	// Trace flags are shared, hence identical across specs.
	var rec *trace.Recorder
	if specs[0].Trace.Enabled() {
		rec = trace.NewRecorder()
	}

	totalMatched, totalCells := 0, 0
	for _, spec := range specs {
		res, err := core.Execute(context.Background(), spec, core.ExecOptions{Recorder: rec, SkipExports: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "run: %v\n", err)
			return exitCodeFor(err)
		}
		t := res.Table
		if md {
			fmt.Println(t.RenderMarkdown())
		} else {
			fmt.Println(t.Render())
		}
		if spec.Trace.Phases {
			printCellNotes(t)
		}
		m, n := t.Agreement(agree)
		totalMatched += m
		totalCells += n
		fmt.Printf("agreement within %.1fx of the paper: %d/%d cells\n\n", agree, m, n)
	}
	if len(specs) > 1 {
		fmt.Printf("overall agreement: %d/%d cells within %.1fx\n", totalMatched, totalCells, agree)
	}

	// Export paths are shared flags, hence identical across specs.
	last := specs[len(specs)-1]
	if last.Trace.Metrics {
		fmt.Print(rec.Metrics().Render())
	}
	if last.Trace.Out != "" {
		if err := trace.WriteChromeFile(last.Trace.Out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "traceout: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", last.Trace.Out)
	}
	if last.Trace.CSV != "" {
		if err := trace.WriteCSVFile(last.Trace.CSV, rec); err != nil {
			fmt.Fprintf(os.Stderr, "tracecsv: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", last.Trace.CSV)
	}
	return 0
}

// exitCodeFor maps validation errors (bad figure/row/col, bad knobs) to
// exit 2 like flag errors; execution failures exit 1.
func exitCodeFor(err error) int {
	if errors.Is(err, bench.ErrInvalidSpec) {
		return 2
	}
	return 1
}

func printCellNotes(t *core.Table) {
	for _, r := range t.Rows {
		for _, c := range t.Cols {
			cell := t.Cells[r][c]
			if len(cell.Notes) == 0 {
				continue
			}
			fmt.Printf("  %s / %s:\n", r, c)
			for _, n := range cell.Notes {
				fmt.Printf("    %s\n", n)
			}
		}
	}
	fmt.Println()
}

func cmdList(args []string) int {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	fs.Parse(args)
	for _, f := range bench.Figures() {
		fmt.Printf("  %-7s %s\n", f.ID, f.Title)
	}
	return 0
}

func cmdLoc(args []string) int {
	fs := flag.NewFlagSet("loc", flag.ExitOnError)
	fs.Parse(args)
	fmt.Println("Lines of Go code per task implementation (this reproduction):")
	for _, l := range bench.LinesOfCode() {
		fmt.Printf("  %-12s %-14s %5d\n", l.Task, l.Platform, l.Lines)
	}
	return 0
}

// flatFormError detects the removed pre-subcommand flat form
// (`mlbench -figure fig1a ...`) and returns the migration message. The
// flat surface was deprecated for several releases and is now gone:
// failing loudly with the equivalent subcommand beats silently parsing
// half the old flags.
func flatFormError(args []string) (string, bool) {
	if len(args) == 0 || !strings.HasPrefix(args[0], "-") {
		return "", false
	}
	return fmt.Sprintf("mlbench: top-level flags were removed; use `mlbench run %s` (see `mlbench help`)",
		strings.Join(args, " ")), true
}
