package bench

import (
	"fmt"

	"mlbench/internal/psengine"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/gmmtask"
	"mlbench/internal/tasks/hmmtask"
	"mlbench/internal/tasks/lassotask"
	"mlbench/internal/tasks/ldatask"
	"mlbench/internal/tasks/task"
)

// figPS is the fifth-engine head-to-head: every task the paper ran on all
// four platforms, plus the parameter-server engine the field converged on
// one platform generation later, on the paper's 5-machine configuration.
// The graph engines run their super-vertex variants (the ones that
// complete everywhere). Like the fig7 family there are no paper reference
// times — the paper predates the architecture — so the paper column
// renders as "?". The -shards and -staleness flags parameterize the
// Param Server row; at staleness 0 its cycles are synchronous and its
// GMM/Lasso chains are bit-identical to Giraph's (the equivalence battery
// certifies this).
func figPS(s RunSpec) *figure {
	ps := psengine.Config{Shards: s.Shards, Staleness: s.Staleness}
	py := sim.ProfilePython
	gmmPlain := gmmCfg(s, 10, false)
	gmmSV := gmmCfg(s, 10, true)
	lassoC := lassoCfg(s)
	lassoSV := lassoC
	lassoSV.SuperVertex = true
	ldaC := ldaCfg(s)
	hmmC := hmmCfg(s)

	type col struct {
		name  string
		scale float64
		runs  map[string]runFn
	}
	cols := []col{
		{"GMM 10d", gmmScale(10), map[string]runFn{
			"simsql":   func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunSimSQL(cl, gmmPlain) },
			"spark":    func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunSpark(cl, gmmPlain, py) },
			"graphlab": func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunGraphLab(cl, gmmSV) },
			"giraph":   func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunGiraph(cl, gmmSV) },
			"ps":       func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunPS(cl, gmmPlain, ps) },
		}},
		{"Lasso", 500, map[string]runFn{
			"simsql":   func(cl *sim.Cluster) (*task.Result, error) { return lassotask.RunSimSQL(cl, lassoC) },
			"spark":    func(cl *sim.Cluster) (*task.Result, error) { return lassotask.RunSpark(cl, lassoC) },
			"graphlab": func(cl *sim.Cluster) (*task.Result, error) { return lassotask.RunGraphLab(cl, lassoC) },
			"giraph":   func(cl *sim.Cluster) (*task.Result, error) { return lassotask.RunGiraph(cl, lassoSV) },
			"ps":       func(cl *sim.Cluster) (*task.Result, error) { return lassotask.RunPS(cl, lassoC, ps) },
		}},
		{"LDA", ldaScale, map[string]runFn{
			"simsql":   func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunSimSQL(cl, ldaC, ldatask.VariantSV) },
			"spark":    func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunSpark(cl, ldaC, ldatask.VariantSV, py) },
			"graphlab": func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunGraphLab(cl, ldaC) },
			"giraph":   func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunGiraph(cl, ldaC, ldatask.VariantSV) },
			"ps":       func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunPS(cl, ldaC, ps) },
		}},
		{"HMM", hmmScale, map[string]runFn{
			"simsql":   func(cl *sim.Cluster) (*task.Result, error) { return hmmtask.RunSimSQL(cl, hmmC, hmmtask.VariantSV) },
			"spark":    func(cl *sim.Cluster) (*task.Result, error) { return hmmtask.RunSpark(cl, hmmC, hmmtask.VariantSV) },
			"graphlab": func(cl *sim.Cluster) (*task.Result, error) { return hmmtask.RunGraphLab(cl, hmmC) },
			"giraph":   func(cl *sim.Cluster) (*task.Result, error) { return hmmtask.RunGiraph(cl, hmmC, hmmtask.VariantSV) },
			"ps":       func(cl *sim.Cluster) (*task.Result, error) { return hmmtask.RunPS(cl, hmmC, ps) },
		}},
	}

	rows := []struct{ label, platform string }{
		{"SimSQL", "simsql"},
		{"Spark (Python)", "spark"},
		{"GraphLab (Super Vertex)", "graphlab"},
		{"Giraph (Super Vertex)", "giraph"},
		{"Param Server", "ps"},
	}
	shards := "per-machine"
	if ps.Shards > 0 {
		shards = fmt.Sprintf("%d", ps.Shards)
	}
	f := &figure{
		title: fmt.Sprintf("Parameter server vs the paper's platforms (5 machines; shards=%s staleness=%d on the PS row)",
			shards, ps.Staleness),
	}
	for _, r := range rows {
		cells := make([]cellSpec, len(cols))
		for i, c := range cols {
			cells[i] = cellSpec{col: c.name, machines: 5, scale: c.scale, run: c.runs[r.platform]}
		}
		f.rows = append(f.rows, rowSpec{label: r.label, cells: cells})
	}
	return f
}
