package main

import (
	"fmt"
	"io"
)

// Verdicts of --compare, per workload x metric row.
const (
	verdictSame       = "same"       // B's median is within the bound of A's
	verdictRegressed  = "regressed"  // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // run-to-run spread is wider than the bound, so "same" cannot be told
	verdictChanged    = "changed"    // an exactly-repeating count differs
)

// compareRow is one judged workload x metric pair.
type compareRow struct {
	Workload, Metric string
	A, B             float64 // medians
	Worse            float64 // relative worsening of B against A (negative = better)
	Spread           float64 // the wider of the two sets' spreads
	Verdict          string
}

// worsening is how much worse b is than a as a share of a, in the
// metric's own direction.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	w := (b - a) / a
	if d.Better == "higher" {
		w = -w
	}
	return w
}

// allBetter reports whether every run of b reads better than every run
// of a — the one case in which a spread wider than the bound still
// resolves.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worsening(d, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// judge applies one end-to-end metric's bound to two sets of runs.
func judge(d metricDef, a, b []float64) (worse, spr float64, verdict string) {
	worse = worsening(d, median(a), median(b))
	spr = spread(a)
	if s := spread(b); s > spr {
		spr = s
	}
	switch {
	case worse > d.Bound:
		verdict = verdictRegressed
	case spr > d.Bound && !allBetter(d, a, b):
		verdict = verdictUnresolved
	default:
		verdict = verdictSame
	}
	return
}

// compareReports judges every workload the two reports share: each
// end-to-end metric against its bound, each exactly-repeating count for
// equality. failUp lists workloads whose fail_share rose.
func compareReports(a, b *Report) (rows []compareRow, failUp []string) {
	byName := map[string]*WorkloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			continue
		}
		if wb.failShare() > wa.failShare() {
			failUp = append(failUp, wa.Name)
		}
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				va, vb := wa.values(d.Name), wb.values(d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				row := compareRow{Workload: wa.Name, Metric: d.Name, A: median(va), B: median(vb)}
				switch {
				case d.Bound > 0:
					row.Worse, row.Spread, row.Verdict = judge(d, va, vb)
				case d.Exact:
					row.Verdict = verdictSame
					if row.A != row.B {
						row.Verdict = verdictChanged
					}
				default:
					continue // per-layer timings have no bound; read them in the reports
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, failUp
}

// compareFiles prints the comparison of two report files and returns
// the exit code: 1 on any regressed row or any rise in fail_share.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	b, err2 := readReport(pathB)
	if err == nil {
		err = err2
	}
	if err != nil {
		fmt.Fprintln(out, "benchmark: compare:", err)
		return 2
	}
	rows, failUp := compareReports(a, b)
	code := 0
	fmt.Fprintf(out, "%-14s %-28s %14s %14s %9s %8s  %s\n", "workload", "metric", "A", "B", "worse", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(out, "%-14s %-28s %14.6g %14.6g %8.1f%% %7.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Worse, 100*r.Spread, r.Verdict)
		if r.Verdict == verdictRegressed {
			code = 1
		}
	}
	for _, w := range failUp {
		fmt.Fprintf(out, "%-14s fail_share rose\n", w)
		code = 1
	}
	if len(rows) == 0 {
		fmt.Fprintln(out, "benchmark: compare: the reports share no workload")
		return 2
	}
	return code
}
