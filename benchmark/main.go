// Command benchmark measures how fast this reproduction itself runs: five
// named workloads against the built mlbench and mlbenchd programs
// (end-to-end metrics, tracing off), and a separate in-process traced
// pass that yields per-layer metrics. See README.md.
//
//	go run -C benchmark . --seed 1                       # all five workloads, untraced
//	go run -C benchmark . --seed 1 --workload serve-zipf # one workload; last line is its result JSON
//	go run -C benchmark . --seed 1 --trace               # the traced pass
//	go run -C benchmark . --compare A.json B.json        # judge two reports by each metric's bound
//
// BENCHMARK.json runs it through run.sh, which keeps the Go toolchain's
// files inside the checkout and passes the driver's --seconds and
// --trace 0|1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// normalizeArgs lets --trace be written bare (the human form) or with a
// 0/1 value (the driver's form): a following "0" or "1" is folded into
// the flag so the flag package sees one boolean either way.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "--trace" || a == "-trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload and print its result JSON as the last line (default: all five)")
	seed := fs.Uint64("seed", 1, "workload seed: every batch spec's seed, the request sequence, and the per-key spec seeds")
	seconds := fs.Float64("seconds", referenceSeconds, "how long one run measures")
	trace := fs.Bool("trace", false, "run the in-process traced pass (per-layer metrics) instead of the untraced end-to-end pass")
	runs := fs.Int("runs", 1, "runs per workload, all at --seed, so that the report's spread is the host's noise (what --compare needs)")
	out := fs.String("out", "", "directory for the report JSON, Chrome traces and child stderr logs (default benchmark/out in the repository)")
	compare := fs.Bool("compare", false, "compare two report files given as arguments; exit 1 on a regression")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: --compare needs two report files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *seconds < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds and --runs must be at least 1")
		return 2
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	// Every workload file is validated before anything is timed.
	var workloads []*Workload
	for _, n := range names {
		w, err := loadWorkload(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		workloads = append(workloads, w)
	}

	root, err := findRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	e := &env{root: root, bin: filepath.Join(root, ".bench_build", "bin"), out: *out}
	if e.out == "" {
		e.out = filepath.Join(root, "benchmark", "out")
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	// SIGINT/SIGTERM cancel the context; every child is then stopped and
	// waited for on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if err := e.build(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("proc.build_s %.3f s (go build ./cmd/mlbench ./cmd/mlbenchd)\n", e.buildSec)

	report := newReport(*seed, *seconds, *trace)
	failed := false
	var last *Run
	for _, w := range workloads {
		wr := &WorkloadReport{Name: w.Name, Why: w.Why}
		report.Workloads = append(report.Workloads, wr)
		for i := 0; i < *runs && ctx.Err() == nil; i++ {
			var run *Run
			if *trace {
				run = runTraced(ctx, e, w, *seed, *seconds)
			} else {
				run = runUntraced(ctx, e, w, *seed, *seconds)
			}
			wr.Runs = append(wr.Runs, run)
			failed = failed || !run.Correct
			last = run
		}
		wr.print(os.Stdout)
	}
	kind := "untraced"
	if *trace {
		kind = "traced"
	}
	path := filepath.Join(e.out, fmt.Sprintf("report-%s-seed%d.json", kind, *seed))
	if err := report.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nwrote %s\n", path)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		return 1
	}
	if *workload != "" && *runs == 1 {
		fmt.Println(last.resultLine())
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: output checks failed:", strings.Join(failedWorkloads(report), ", "))
		return 1
	}
	return 0
}

func failedWorkloads(r *Report) []string {
	var out []string
	for _, w := range r.Workloads {
		for _, run := range w.Runs {
			if !run.Correct {
				out = append(out, w.Name)
				break
			}
		}
	}
	return out
}
