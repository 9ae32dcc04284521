package lassotask

import (
	"fmt"

	"mlbench/internal/bsp"
	"mlbench/internal/linalg"
	"mlbench/internal/models/lasso"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/workload"
)

// Giraph vertex layout: dimensional vertices at [0, P), the model vertex
// at modelVID, data vertices (points or super vertices) above bspDataBase.
const (
	modelVID    bsp.VertexID = 1 << 40
	bspDataBase bsp.VertexID = 1 << 41
)

// bspPointVtx is a per-point data vertex (the plain formulation).
type bspPointVtx struct {
	x linalg.Vec
	y float64
}

// bspBlockVtx is a data super vertex.
type bspBlockVtx struct {
	d *workload.RegressionData
}

// bspDimVtx folds the lower part, [0, j], of Gram row j.
type bspDimVtx struct {
	j   int
	row linalg.Vec
}

// bspModelVtx owns the sampler state and the assembled Gram matrix.
type bspModelVtx struct {
	state *lasso.State
	g     gramAcc
}

// gramRowsMsg is a super vertex's Gram contribution: a view of its rows,
// one shared message per dimensional vertex, which expands its own row.
type gramRowsMsg struct {
	xs []linalg.Vec
}

// gramRowMsg is one assembled lower Gram row, [0, j], for the model
// vertex.
type gramRowMsg struct {
	j   int
	row linalg.Vec
}

// gramScaledRowMsg is a per-point row contribution x[j] * x, sharing the
// point's storage (row j of x x^T) — the plain formulation ships one of
// these per (point, dimension) without materializing the outer product.
type gramScaledRowMsg struct {
	j    int
	coef float64
	x    linalg.Vec
}

// miscMsg carries X^T y / response-moment contributions to the model
// vertex.
type miscMsg struct {
	moments
}

// RunGiraph implements the paper's Section 6.4 Giraph Bayesian Lasso.
// The plain formulation has every data vertex send its x x^T rows to the
// dimensional vertices — a per-vertex message volume that Giraph's
// buffering cannot survive at any tested size ("Giraph was unable to run
// without ... the super vertex construction"). With cfg.SuperVertex the
// Gram rows are pre-combined per block and the code runs in about a
// minute per iteration.
func RunGiraph(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)
	scale := cl.Scale()

	rng := randgen.New(cfg.Seed ^ 0x61a7)
	model := &bspModelVtx{state: lasso.Init(cfg.P), g: newGram(cfg.P)}
	g, err := loadGiraph(cl, cfg, model)
	if err != nil {
		return res, err
	}
	if err := giraphGram(g, cl.NumMachines(), cfg, model); err != nil {
		return res, err
	}
	xtx, xty, yBar, n := model.g.finish(scale)
	res.InitSec = sw.Lap()

	h := lasso.Hyper{Lambda: cfg.Lambda, P: cfg.P}
	// Gibbs iterations: three supersteps each — the model vertex draws
	// tau and beta and shares beta; data vertices compute residuals into
	// an aggregator; the model vertex draws sigma^2.
	var sseAgg float64
	for iter := 0; iter < cfg.Iterations; iter++ {
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			if d, ok := v.Data.(*bspModelVtx); ok {
				m := ctx.Meter()
				m.ChargeLinalgAbs(cfg.P, 8, 1)
				m.ChargeBulkSerialAbs(lasso.BetaFlops(cfg.P))
				lasso.SampleInvTau2(rng, h, d.state)
				if err := lasso.SampleBeta(rng, d.state, xtx, xty); err != nil {
					return err
				}
				ctx.SetShared("beta", d.state.Beta, int64(8*cfg.P))
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("lasso giraph iter %d: draws: %w", iter, err)
		}
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			m := ctx.Meter()
			beta, _ := ctx.Shared("beta").(linalg.Vec)
			switch d := v.Data.(type) {
			case *bspPointVtx:
				m.ChargeLinalg(1, float64(2*cfg.P), cfg.P)
				r := (d.y - yBar) - d.x.Dot(beta)
				ctx.Aggregate("sse", r*r)
			case *bspBlockVtx:
				m.ChargeBulk(float64(len(d.d.X)) * 2 * float64(cfg.P))
				ctx.Aggregate("sse", sseOf(d.d, beta, yBar)*scale)
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("lasso giraph iter %d: residuals: %w", iter, err)
		}
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			if d, ok := v.Data.(*bspModelVtx); ok {
				sseAgg = ctx.Agg("sse")
				lasso.SampleSigma2(rng, d.state, n, sseAgg)
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("lasso giraph iter %d: sigma: %w", iter, err)
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(chainPoint(cfg, model.state.Beta))
	}
	recordQuality(cfg, model.state.Beta, res)
	return res, nil
}

// loadGiraph builds and loads the Lasso graph: data vertices (points, or
// with cfg.SuperVertex one block per core), the P dimensional vertices
// and the model vertex.
func loadGiraph(cl *sim.Cluster, cfg Config, model *bspModelVtx) (*bsp.Graph, error) {
	machines := cl.NumMachines()
	scale := cl.Scale()
	// No message combiner: the Gram-phase messages are rows of distinct
	// matrix positions that a Giraph combiner cannot merge, so the full
	// per-point volume is buffered — exactly why the plain formulation
	// "was unable to run" in the paper.
	g := bsp.NewGraph(cl)
	if cfg.SuperVertex {
		svPerMachine := cl.Config().Cores
		for mc := 0; mc < machines; mc++ {
			d := genMachineData(cl, cfg, mc)
			for s := 0; s < svPerMachine; s++ {
				lo, hi := s*len(d.X)/svPerMachine, (s+1)*len(d.X)/svPerMachine
				if lo == hi {
					continue
				}
				sub := &workload.RegressionData{X: d.X[lo:hi], Y: d.Y[lo:hi]}
				id := bspDataBase + bsp.VertexID(mc*svPerMachine+s)
				bytes := int64(float64((hi-lo)*(8*cfg.P+8)) * scale)
				g.AddVertex(id, &bspBlockVtx{d: sub}, bytes, false, mc)
			}
		}
	} else {
		next := int64(bspDataBase)
		for mc := 0; mc < machines; mc++ {
			d := genMachineData(cl, cfg, mc)
			for i := range d.X {
				g.AddVertex(bsp.VertexID(next), &bspPointVtx{x: d.X[i], y: d.Y[i]}, int64(8*cfg.P)+24, true, mc)
				next++
			}
		}
	}
	for j := 0; j < cfg.P; j++ {
		g.AddVertex(bsp.VertexID(j), &bspDimVtx{j: j}, int64(8*cfg.P)+16, false, j%machines)
	}
	g.AddVertex(modelVID, model, int64(8*cfg.P*cfg.P), false, 0)
	if err := g.Load(); err != nil {
		return nil, fmt.Errorf("lasso giraph: load: %w", err)
	}
	return g, nil
}

// giraphGram runs the three initialization supersteps that assemble the
// Gram matrix and the moments in model.g (lower triangle; finish mirrors
// it).
func giraphGram(g *bsp.Graph, machines int, cfg Config, model *bspModelVtx) error {
	rowBytes := int64(8*cfg.P) + 16
	// Superstep 1: data vertices emit Gram rows to the dimensional
	// vertices and moment contributions to the model vertex. A super
	// vertex's rows go out as one shared view of its points, not as the
	// rows of a dense partial.
	err := g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
		m := ctx.Meter()
		switch d := v.Data.(type) {
		case *bspPointVtx:
			m.ChargeLinalg(cfg.P, float64(2*cfg.P), cfg.P)
			for j := 0; j < cfg.P; j++ {
				ctx.Send(bsp.VertexID(j), &gramScaledRowMsg{j: j, coef: d.x[j], x: d.x}, rowBytes)
			}
			single := &workload.RegressionData{X: []linalg.Vec{d.x}, Y: linalg.Vec{d.y}}
			ctx.Send(modelVID, &miscMsg{localMoments(single, cfg.P)}, rowBytes*2)
		case *bspBlockVtx:
			m.ChargeBulk(float64(len(d.d.X)) * lasso.GramFlops(cfg.P))
			rows := &gramRowsMsg{xs: d.d.X}
			for j := 0; j < cfg.P; j++ {
				ctx.Send(bsp.VertexID(j), rows, rowBytes)
			}
			ctx.Send(modelVID, &miscMsg{localMoments(d.d, cfg.P)}, rowBytes*2)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("lasso giraph: gram emit: %w", err)
	}
	// Superstep 2: dimensional vertices fold the lower part of their row,
	// every sender through one scratch row per machine, and forward it to
	// the model vertex.
	scratch := make([][]float64, machines)
	err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
		switch d := v.Data.(type) {
		case *bspDimVtx:
			d.row = linalg.NewVec(d.j + 1)
			for _, msg := range msgs {
				switch rm := msg.Data.(type) {
				case *gramRowsMsg:
					s := scratch[v.Machine()]
					if s == nil {
						s = make([]float64, cfg.P)
						scratch[v.Machine()] = s
					}
					foldGramRow(d.row, rm.xs, d.j, s)
				case *gramScaledRowMsg:
					for i := range d.row {
						d.row[i] += rm.coef * rm.x[i]
					}
				}
			}
			ctx.Send(modelVID, &gramRowMsg{j: d.j, row: d.row}, rowBytes)
		case *bspModelVtx:
			for _, msg := range msgs {
				if mm, ok := msg.Data.(*miscMsg); ok {
					d.g.merge(mm.moments)
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("lasso giraph: gram rows: %w", err)
	}
	// Superstep 3: the model vertex assembles the Gram matrix.
	err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
		if d, ok := v.Data.(*bspModelVtx); ok {
			ctx.Meter().ChargeBulkAbs(float64(cfg.P * cfg.P))
			for _, msg := range msgs {
				if rm, ok := msg.Data.(*gramRowMsg); ok {
					copy(d.g.xtx.Row(rm.j), rm.row)
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("lasso giraph: gram assemble: %w", err)
	}
	return nil
}
