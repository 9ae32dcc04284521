package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// HostBenchRecord is one row of the BENCH_host.json "figures" section:
// the real wall-clock time one figure took with a given host worker
// count, next to the virtual cluster time it simulated (which must not
// depend on the worker count). Fields are declared in json-key order so
// encoding/json emits sorted keys and two CI runs diff cleanly.
type HostBenchRecord struct {
	Figure     string  `json:"figure"`
	HostCPUs   int     `json:"host_cpus"` // wall-clock speedup is bounded by this
	Machines   int     `json:"machines"`  // largest simulated cluster in the figure
	VirtualSec float64 `json:"virtual_sec"`
	WallSec    float64 `json:"wall_sec"`
	Workers    int     `json:"workers"`
}

// maxMachines returns the largest cell cluster in the figure.
func (f *figure) maxMachines() int {
	max := 0
	for _, r := range f.rows {
		for _, c := range r.cells {
			if c.machines > max {
				max = c.machines
			}
		}
	}
	return max
}

// virtualSec totals the simulated seconds across a table's measured cells.
func virtualSec(t *Table, iters int) float64 {
	var total float64
	for _, r := range t.Rows {
		for _, c := range t.Cols {
			cell := t.Cells[r][c]
			if cell.Skipped || cell.Failed {
				continue
			}
			total += cell.InitSec + cell.IterSec*float64(iters)
		}
	}
	return total
}

// RunHostBench measures the host-parallel speedup: it executes spec once
// per figure id with Workers=1 and again with the full worker pool
// (spec.Workers, or GOMAXPROCS when that is 0), wall-timing both, and
// verifies the rendered virtual-time tables are byte-identical (the
// parallel scheduler must not change any simulated result). The caller
// owns persistence; internal/perfgate wraps the records in the versioned
// BENCH_host.json schema.
func RunHostBench(ctx context.Context, figureIDs []string, spec RunSpec) ([]HostBenchRecord, error) {
	full := spec.Workers
	if full <= 0 {
		full = runtime.GOMAXPROCS(0)
	}
	var records []HostBenchRecord
	for _, id := range figureIDs {
		var renders [2]string
		for i, workers := range []int{1, full} {
			spec.Figure, spec.Workers = id, workers
			start := time.Now()
			res, err := ExecuteSpec(ctx, spec, ExecOptions{})
			if err != nil {
				return nil, fmt.Errorf("hostbench: %w", err)
			}
			wall := time.Since(start).Seconds()
			renders[i] = res.Table.Render()
			records = append(records, HostBenchRecord{
				Figure:     id,
				Machines:   buildFigure(res.Spec).maxMachines(),
				Workers:    workers,
				HostCPUs:   runtime.NumCPU(),
				WallSec:    wall,
				VirtualSec: virtualSec(res.Table, res.Spec.Iterations),
			})
		}
		if renders[0] != renders[1] {
			return nil, fmt.Errorf("hostbench: figure %s table differs between 1 and %d workers", id, full)
		}
	}
	return records, nil
}
