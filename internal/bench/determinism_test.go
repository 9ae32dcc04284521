package bench

import (
	"bytes"
	"context"
	"testing"

	"mlbench/internal/trace"
)

// firstDiff returns the index of the first differing byte of two strings
// (or the shorter length when one is a prefix of the other).
func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestWorkerCountInvariantTables is the end-to-end determinism gate for
// host-parallel execution: whole figures — including the fault-injected
// fig7 recovery table, whose crash schedule derives from a clean probe
// run — must render byte-identical no matter how many host goroutines
// execute the simulated machines, and so must their golden trace
// streams: the Chrome trace-event JSON and the CSV span dump, which
// cover every span, event and metric sample the run recorded. Run under
// -race this also sweeps the engines for cross-machine data races.
func TestWorkerCountInvariantTables(t *testing.T) {
	for _, id := range []string{"fig1a", "fig2", "fig7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) (table, chrome, csv string) {
				s := RunSpec{Figure: id, Iterations: 1, Seed: 3, Workers: workers}
				if testing.Short() {
					// -short (the CI race run) shrinks the real per-cell
					// arithmetic 10x; worker-count invariance is
					// scale-independent, and full scale is far too slow
					// under the race detector.
					s.ScaleDiv = 0.1
				}
				s = s.Normalize()
				rec := trace.NewRecorder()
				f, err := s.resolve()
				if err != nil {
					t.Fatal(err)
				}
				if testing.Short() {
					// Likewise keep every row — all platforms, and fig7's
					// fault schedule — but only the smallest cluster column.
					for i := range f.rows {
						f.rows[i].cells = f.rows[i].cells[:1]
					}
				}
				tbl, err := f.run(context.Background(), s, ExecOptions{Recorder: rec})
				if err != nil {
					t.Fatal(err)
				}
				table = tbl.Render()
				var cb, vb bytes.Buffer
				if err := trace.WriteChrome(&cb, rec); err != nil {
					t.Fatalf("WriteChrome: %v", err)
				}
				if err := trace.WriteCSV(&vb, rec); err != nil {
					t.Fatalf("WriteCSV: %v", err)
				}
				return table, cb.String(), vb.String()
			}
			seq, seqChrome, seqCSV := render(1)
			par, parChrome, parCSV := render(8)
			if seq != par {
				t.Errorf("figure %s differs between 1 and 8 host workers:\n%s\n--- vs ---\n%s", id, seq, par)
			}
			if len(seqChrome) == 0 || len(seqCSV) == 0 {
				t.Fatalf("empty trace export: chrome %d bytes, csv %d bytes", len(seqChrome), len(seqCSV))
			}
			if seqChrome != parChrome {
				i := firstDiff(seqChrome, parChrome)
				t.Errorf("chrome trace differs between 1 and 8 host workers: %d vs %d bytes, first diff at byte %d (...%q vs ...%q)",
					len(seqChrome), len(parChrome), i, clip(seqChrome, i), clip(parChrome, i))
			}
			if seqCSV != parCSV {
				i := firstDiff(seqCSV, parCSV)
				t.Errorf("trace CSV differs between 1 and 8 host workers: %d vs %d bytes, first diff at byte %d (...%q vs ...%q)",
					len(seqCSV), len(parCSV), i, clip(seqCSV, i), clip(parCSV, i))
			}
		})
	}
}

// clip returns a short window of s around index i for diff reporting.
func clip(s string, i int) string {
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestRunnableCellRefs checks the benchmark's cell enumeration: NA cells
// are excluded and every ref is a cell spec Validate accepts. (That a
// cell spec yields the cell the whole-figure spec produces is
// TestExecuteSpecCellMatchesFigureSpec.)
func TestRunnableCellRefs(t *testing.T) {
	s := RunSpec{Iterations: 1, Seed: 3, ScaleDiv: 0.02}
	refs := RunnableCellRefs(s.Options())
	if len(refs) < 100 {
		t.Fatalf("RunnableCellRefs = %d cells, want the full evaluation (>= 100)", len(refs))
	}
	for _, r := range refs {
		if r.Figure == "fig4a" && r.Row == "Spark (Python)" && r.Col == "word-based" {
			t.Errorf("NA cell %s enumerated as runnable", r)
		}
		cs := s
		cs.Figure, cs.Row, cs.Col = r.Figure, r.Row, r.Col
		if err := cs.Validate(); err != nil {
			t.Errorf("ref %s is not a valid cell spec: %v", r, err)
		}
	}
}
