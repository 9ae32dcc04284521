package core

import (
	"context"
	"strings"
	"testing"
)

func TestFigureIDs(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 17 {
		t.Fatalf("got %d figure ids: %v", len(ids), ids)
	}
	if ids[0] != "fig1a" || ids[len(ids)-1] != "fig-scale" {
		t.Errorf("unexpected ordering: %v", ids)
	}
}

// Spec-level faults reach every cell: a fig6 cell under one injected
// crash still completes, and records the recovery in its notes.
func TestExecuteWithFaults(t *testing.T) {
	res, err := Execute(context.Background(), RunSpec{
		Figure: "fig6", Row: "Spark (Java)", Col: "5m",
		Iterations: 1,
		Faults:     FaultConfig{Failures: 1},
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Table.Cells["Spark (Java)"]["5m"]
	if cell.Failed || cell.IterSec <= 0 {
		t.Fatalf("5m cell should succeed under one crash: %+v", cell)
	}
	var noted bool
	for _, n := range cell.Notes {
		if strings.HasPrefix(n, "fault:") {
			noted = true
		}
	}
	if !noted {
		t.Errorf("run with faults recorded no fault note: %v", cell.Notes)
	}
}
