package bench

import (
	"fmt"

	"mlbench/internal/psengine"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/gmmtask"
	"mlbench/internal/tasks/ldatask"
	"mlbench/internal/tasks/task"
)

// defaultScaleMachines is the fig-scale sweep's top machine count when
// RunSpec.Machines is unset (Normalize fills it in).
const defaultScaleMachines = 10_000

// defaultScaleShards caps the parameter-server shard count for the
// fig-scale PS row: the engine's default of one shard per machine makes
// server-side delta traffic quadratic in the cluster size, which is
// exactly the deployment mistake real parameter servers avoid with a
// fixed server pool.
const defaultScaleShards = 64

// figScale is the scale-out sweep enabled by the streamed partition
// substrate: GMM and the amnesiac streamed LDA formulation at
// Machines/100, Machines/10, and Machines simulated machines (default
// 100 -> 1,000 -> 10,000), across all five engines. The paper stops at
// 100 machines; this figure extrapolates its models two orders of
// magnitude further, which is only possible because partition state
// streams chunk by chunk instead of being materialized per machine:
// host memory stays bounded by chunk size x workers while the simulated
// cluster grows. There are no paper reference times, so the paper
// column renders "?". GraphLab's rows run under the engine's boot clamp
// (the paper's cluster ceiling) — the cells report what the clamped
// deployment achieves.
func figScale(s RunSpec) *figure {
	top := s.Machines
	ps := psengine.Config{Shards: s.Shards, Staleness: s.Staleness}
	if ps.Shards == 0 {
		ps.Shards = defaultScaleShards
	}
	py := sim.ProfilePython

	// Small model dimensions keep the per-machine statistics payloads
	// model-sized while the machine count carries the sweep.
	gmmC := gmmtask.Config{K: 4, D: 4, PointsPerMachine: 1_000_000,
		SuperVertex: true, SVPerMachine: 1, Iterations: s.Iterations, Dataset: s.Dataset}
	ldaC := ldatask.Config{T: 20, V: 1_000, DocsPerMachine: 100_000, AvgDocLen: 20,
		Iterations: s.Iterations, Sampler: s.tier(), Dataset: s.Dataset}
	const gmmScaleDown = 10_000 // 100 real points per machine
	const ldaScaleDown = 50_000 // 2 real documents per machine

	type col struct {
		name     string
		machines int
		scale    float64
		runs     map[string]runFn
	}
	var cols []col
	for _, div := range []int{100, 10, 1} {
		mc := top / div
		if mc < 1 {
			mc = 1
		}
		cols = append(cols, col{
			name: fmt.Sprintf("GMM %dm", mc), machines: mc, scale: gmmScaleDown,
			runs: map[string]runFn{
				"simsql":   func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunSimSQL(cl, gmmC) },
				"spark":    func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunSpark(cl, gmmC, py) },
				"graphlab": func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunGraphLab(cl, gmmC) },
				"giraph":   func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunGiraph(cl, gmmC) },
				"ps":       func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunPS(cl, gmmC, ps) },
			},
		})
	}
	for _, div := range []int{100, 10, 1} {
		mc := top / div
		if mc < 1 {
			mc = 1
		}
		cols = append(cols, col{
			name: fmt.Sprintf("LDA %dm", mc), machines: mc, scale: ldaScaleDown,
			runs: map[string]runFn{
				"simsql":   func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunScaleSimSQL(cl, ldaC) },
				"spark":    func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunScaleSpark(cl, ldaC, py) },
				"graphlab": func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunScaleGraphLab(cl, ldaC) },
				"giraph":   func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunScaleGiraph(cl, ldaC) },
				"ps":       func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunScalePS(cl, ldaC, ps) },
			},
		})
	}

	rows := []struct{ label, platform string }{
		{"SimSQL", "simsql"},
		{"Spark (Python)", "spark"},
		{"GraphLab (Super Vertex)", "graphlab"},
		{"Giraph (Super Vertex)", "giraph"},
		{"Param Server", "ps"},
	}
	f := &figure{
		title: fmt.Sprintf("Streamed scale-out sweep: GMM and LDA at %d/%d/%d simulated machines (shards=%d staleness=%d on the PS row)",
			cols[0].machines, cols[1].machines, cols[2].machines, ps.Shards, ps.Staleness),
	}
	for _, r := range rows {
		cells := make([]cellSpec, len(cols))
		for i, c := range cols {
			cells[i] = cellSpec{col: c.name, machines: c.machines, scale: c.scale, run: c.runs[r.platform]}
		}
		f.rows = append(f.rows, rowSpec{label: r.label, cells: cells})
	}
	return f
}
