package perfgate

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mlbench/internal/bench"
)

var update = flag.Bool("update", false, "rewrite the golden figure snapshots under testdata/golden/")

// goldenSpec is the fixed spec every golden snapshot is recorded under.
// Changing any cache-keyed field of it invalidates every golden file —
// regenerate with -update and review the diff.
func goldenSpec(id string, workers int) bench.RunSpec {
	return bench.RunSpec{Figure: id, Iterations: 1, Seed: 1, ScaleDiv: GateScaleDiv, Workers: workers}
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".csv")
}

// TestGoldenFigures is the figure-drift gate: every figure's
// virtual-clock table (per-iteration and init cells, Fail cells,
// recovery notes) must serialize byte-identically to its golden CSV, at
// 1 host worker and at 8. An intentional change to any simulated number
// is acknowledged by regenerating:
//
//	go test ./internal/perfgate -run TestGoldenFigures -update
//
// and reviewing the golden diff in the PR — EXPERIMENTS.md can no longer
// rot silently.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep; run without -short (the CI test and benchgate jobs do)")
	}
	for _, id := range bench.FigureIDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			snap := func(workers int) string {
				res, err := bench.ExecuteSpec(context.Background(), goldenSpec(id, workers), bench.ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return SnapshotCSV(res.Table)
			}
			got := snap(1)
			if par := snap(8); par != got {
				t.Fatalf("figure %s snapshot differs between 1 and 8 host workers:\n%s\n--- vs ---\n%s", id, got, par)
			}
			path := goldenPath(id)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden snapshot for %s (run with -update to record one): %v", id, err)
			}
			if got != string(want) {
				t.Errorf("figure %s drifted from its golden snapshot %s.\nIf intentional, regenerate with:\n  go test ./internal/perfgate -run TestGoldenFigures -update\ngot:\n%s\nwant:\n%s",
					id, path, got, want)
			}
		})
	}
}

// TestSnapshotCSVShape locks the serialization itself: header, one
// record per cell, statuses, and full-precision floats.
func TestSnapshotCSVShape(t *testing.T) {
	tbl := &bench.Table{
		ID:   "figX",
		Cols: []string{"5m", "20m"},
		Rows: []string{"Engine A", "Engine B"},
		Cells: map[string]map[string]bench.Cell{
			"Engine A": {
				"5m":  {IterSec: 1234.5678901234567, InitSec: 1.5},
				"20m": {Failed: true, Notes: []string{"OOM: worker 3", "fault: crash"}},
			},
			"Engine B": {
				"5m":  {Skipped: true},
				"20m": {IterSec: 60, InitSec: 0},
			},
		},
	}
	got := SnapshotCSV(tbl)
	want := "figure,row,col,status,iter_sec,init_sec,notes\n" +
		"figX,Engine A,5m,ok,1234.5678901234567,1.5,\n" +
		"figX,Engine A,20m,fail,,,OOM: worker 3; fault: crash\n" +
		"figX,Engine B,5m,skip,,,\n" +
		"figX,Engine B,20m,ok,60,0,\n"
	if got != want {
		t.Errorf("SnapshotCSV:\n%s\nwant:\n%s", got, want)
	}
}
