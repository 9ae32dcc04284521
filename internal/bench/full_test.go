package bench

import (
	"context"
	"os"
	"testing"
)

// TestFullEvaluationAgreement regenerates every paper table and asserts
// the calibrated agreement level. It takes several minutes, so it only
// runs when MLBENCH_FULL=1 (CI nightly / release gate):
//
//	MLBENCH_FULL=1 go test ./internal/bench -run TestFullEvaluationAgreement -timeout 30m
func TestFullEvaluationAgreement(t *testing.T) {
	if os.Getenv("MLBENCH_FULL") != "1" {
		t.Skip("set MLBENCH_FULL=1 to run the full evaluation")
	}
	matched, total := 0, 0
	for _, id := range FigureIDs() {
		res, err := ExecuteSpec(context.Background(), RunSpec{Figure: id, Iterations: 2}, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tbl := res.Table
		m, n := tbl.Agreement(3)
		t.Logf("%s: %d/%d within 3x", id, m, n)
		matched += m
		total += n
		// Every Fail cell must match the paper, except the one known
		// deviation (EXPERIMENTS.md): the paper's Spark HMM at 100
		// machines failed where our byte accounting lands just under
		// the budget.
		for _, r := range tbl.Rows {
			for _, c := range tbl.Cols {
				cell := tbl.Cells[r][c]
				if cell.Skipped || cell.PaperNA {
					continue
				}
				if id == "fig3b" && r == "Spark (Python)" && c == "100m" {
					continue
				}
				if cell.Failed != cell.PaperFail {
					t.Errorf("%s %s/%s: measured fail=%v, paper fail=%v",
						id, r, c, cell.Failed, cell.PaperFail)
				}
			}
		}
	}
	if float64(matched) < 0.9*float64(total) {
		t.Errorf("agreement regressed: %d/%d cells within 3x (want >= 90%%)", matched, total)
	}
}
