package bench

import (
	"mlbench/internal/psengine"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/gmmtask"
	"mlbench/internal/tasks/task"
)

// figImbal measures adversarial partition imbalance: the GMM task on all
// five engines (super-vertex variants for the graph engines, as in
// fig-ps), with the datagen imbal scenarios skewing how many points each
// machine holds. The point distribution itself stays the paper's — the
// imbal-* scenarios declare only a partition section — so the columns
// isolate straggling from data placement: BSP engines wait for the most
// loaded machine at every barrier, while the asynchronous parameter
// server keeps its lightly loaded workers busy. The paper never ran
// imbalanced partitions, so the paper column renders as "?" and the
// table is judged by the perf gate's golden snapshots instead.
func figImbal(s RunSpec) *figure {
	ps := psengine.Config{Shards: s.Shards, Staleness: s.Staleness}
	py := sim.ProfilePython

	cols := []struct{ name, dataset string }{
		{"balanced", ""},
		{"imbal-2x", "imbal-2x"},
		{"imbal-8x", "imbal-8x"},
	}
	rows := []struct {
		label, platform string
		sv              bool
	}{
		{"SimSQL", "simsql", false},
		{"Spark (Python)", "spark", false},
		{"GraphLab (Super Vertex)", "graphlab", true},
		{"Giraph (Super Vertex)", "giraph", true},
		{"Param Server", "ps", false},
	}
	f := &figure{}
	for _, r := range rows {
		platform := r.platform
		cells := make([]cellSpec, len(cols))
		for i, c := range cols {
			cfg := gmmCfg(s, 10, r.sv)
			cfg.Dataset = c.dataset
			var run runFn
			switch platform {
			case "simsql":
				run = func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunSimSQL(cl, cfg) }
			case "spark":
				run = func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunSpark(cl, cfg, py) }
			case "graphlab":
				run = func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunGraphLab(cl, cfg) }
			case "giraph":
				run = func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunGiraph(cl, cfg) }
			case "ps":
				run = func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunPS(cl, cfg, ps) }
			}
			cells[i] = cellSpec{col: c.name, machines: 5, scale: gmmScale(10), run: run}
		}
		f.rows = append(f.rows, rowSpec{label: r.label, cells: cells})
	}
	return f
}
