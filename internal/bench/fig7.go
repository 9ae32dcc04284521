package bench

import (
	"fmt"

	"mlbench/internal/sim"
	"mlbench/internal/tasks/gmmtask"
	"mlbench/internal/tasks/task"
)

// The fig7 family measures what the paper only asserts: each platform's
// fault-tolerance story has a price, and each recovers in a different
// shape. All three figures run the 10-dimensional GMM — the one workload
// every platform completes — with deterministic crashes injected mid-run.
// There are no paper reference times (the paper never injected a
// failure), so the paper column renders as "?".

// fig7RunFn picks the GMM runner for a recovery-figure row. The graph
// engines use their super-vertex implementations — the variants that
// survive at every cluster size in the paper.
func fig7RunFn(s RunSpec, platform string) runFn {
	switch platform {
	case "simsql":
		cfg := gmmCfg(s, 10, false)
		return func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunSimSQL(cl, cfg) }
	case "spark":
		cfg := gmmCfg(s, 10, false)
		return func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunSpark(cl, cfg, sim.ProfilePython) }
	case "graphlab":
		cfg := gmmCfg(s, 10, true)
		return func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunGraphLab(cl, cfg) }
	case "giraph":
		cfg := gmmCfg(s, 10, true)
		return func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunGiraph(cl, cfg) }
	}
	return nil
}

// fig7Rows is the platform lineup shared by the recovery figures.
var fig7Rows = []struct{ label, platform string }{
	{"SimSQL", "simsql"},
	{"Spark (Python)", "spark"},
	{"GraphLab (Super Vertex)", "graphlab"},
	{"Giraph (Super Vertex)", "giraph"},
}

// fig7Faults resolves a recovery figure's fault settings: the user's
// -failures/-failat/-straggle flags win; otherwise the figure's default
// applies. Either way the checkpointing defaults are filled in.
func fig7Faults(s RunSpec, def FaultConfig) FaultConfig {
	fc := s.Faults
	if !fc.Active() {
		fc = def
	}
	return fc.withFaultDefaults()
}

// fig7 is the headline recovery table: per-platform iteration time with
// machine crashes injected mid-run, across cluster sizes.
func fig7(s RunSpec) *figure {
	fc := fig7Faults(s, FaultConfig{Failures: 1})
	f := &figure{
		title: fmt.Sprintf("GMM 10d under failure: %d machine crash(es) mid-run (avg time per iteration, init in parens)",
			fc.Failures),
	}
	for _, r := range fig7Rows {
		run := fig7RunFn(s, r.platform)
		machines := []int{5, 20, 100}
		cells := make([]cellSpec, len(machines))
		for i, m := range machines {
			cells[i] = cellSpec{col: fmt.Sprintf("%dm", m), machines: m, scale: gmmScale(10), run: run, faults: &fc}
		}
		f.rows = append(f.rows, rowSpec{label: r.label, cells: cells})
	}
	return f
}

// fig7b sweeps the failure count at a fixed cluster size. The 0-failure
// column still runs with checkpointing enabled, so the delta against the
// failure columns separates steady-state checkpoint cost from recovery
// cost.
func fig7b(s RunSpec) *figure {
	f := &figure{}
	for _, r := range fig7Rows {
		run := fig7RunFn(s, r.platform)
		counts := []int{0, 1, 2}
		cells := make([]cellSpec, len(counts))
		for i, n := range counts {
			fc := s.Faults.withFaultDefaults()
			fc.Failures = n
			cells[i] = cellSpec{col: fmt.Sprintf("%d failures", n), machines: 20, scale: gmmScale(10), run: run, faults: &fc}
		}
		f.rows = append(f.rows, rowSpec{label: r.label, cells: cells})
	}
	return f
}

// fig7c ablates the checkpoint/snapshot interval for the rollback
// engines under one crash: frequent checkpoints pay every superstep but
// bound the rollback; none at all replays the whole run.
func fig7c(s RunSpec) *figure {
	f := &figure{}
	rows := []struct{ label, platform string }{
		{"Giraph (Super Vertex)", "giraph"},
		{"GraphLab (Super Vertex)", "graphlab"},
	}
	for _, r := range rows {
		run := fig7RunFn(s, r.platform)
		intervals := []int{-1, 1, 3, 10}
		cells := make([]cellSpec, len(intervals))
		for i, k := range intervals {
			fc := s.Faults.withFaultDefaults()
			if fc.Failures == 0 {
				fc.Failures = 1
			}
			fc.BSPCheckpointEvery = k
			fc.GASSnapshotEvery = k
			col := fmt.Sprintf("every %d", k)
			if k < 0 {
				col = "no ckpt"
			}
			cells[i] = cellSpec{col: col, machines: 20, scale: gmmScale(10), run: run, faults: &fc}
		}
		f.rows = append(f.rows, rowSpec{label: r.label, cells: cells})
	}
	return f
}
