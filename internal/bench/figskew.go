package bench

import (
	"mlbench/internal/psengine"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/ldatask"
	"mlbench/internal/tasks/task"
)

// figSkew measures heavy-tailed data skew: the LDA task on all five
// engines (super-vertex variants for the graph engines, as in fig-ps),
// re-run under the datagen skew scenarios. The "paper" column is the
// historical balanced corpus; "skew-light" and "skew-heavy" reshape the
// word frequencies (Zipf exponent), the topic prior, and the document
// lengths (lognormal tail) while keeping the paper's dimensions, so the
// columns isolate how each engine's cost model responds to realistic
// long-tailed text. The paper never ran these corpora, so the paper
// column renders as "?" and the table is judged by the perf gate's
// golden snapshots instead.
func figSkew(s RunSpec) *figure {
	ps := psengine.Config{Shards: s.Shards, Staleness: s.Staleness}
	py := sim.ProfilePython

	cols := []struct{ name, dataset string }{
		{"paper", ""},
		{"skew-light", "skew-light"},
		{"skew-heavy", "skew-heavy"},
	}
	rows := []struct{ label, platform string }{
		{"SimSQL", "simsql"},
		{"Spark (Python)", "spark"},
		{"GraphLab (Super Vertex)", "graphlab"},
		{"Giraph (Super Vertex)", "giraph"},
		{"Param Server", "ps"},
	}
	f := &figure{}
	for _, r := range rows {
		platform := r.platform
		cells := make([]cellSpec, len(cols))
		for i, c := range cols {
			cfg := ldaCfg(s)
			cfg.Dataset = c.dataset
			var run runFn
			switch platform {
			case "simsql":
				run = func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunSimSQL(cl, cfg, ldatask.VariantSV) }
			case "spark":
				run = func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunSpark(cl, cfg, ldatask.VariantSV, py) }
			case "graphlab":
				run = func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunGraphLab(cl, cfg) }
			case "giraph":
				run = func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunGiraph(cl, cfg, ldatask.VariantSV) }
			case "ps":
				run = func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunPS(cl, cfg, ps) }
			}
			cells[i] = cellSpec{col: c.name, machines: 5, scale: ldaScale, run: run}
		}
		f.rows = append(f.rows, rowSpec{label: r.label, cells: cells})
	}
	return f
}
