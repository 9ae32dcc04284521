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

// bspDimVtx collects one row of the Gram matrix.
type bspDimVtx struct {
	j   int
	row linalg.Vec
}

// bspModelVtx owns the sampler state and the assembled Gram matrix.
type bspModelVtx struct {
	state *lasso.State
	g     gramPartial
}

// gramRowMsg is one row contribution to the Gram matrix.
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
	xty    linalg.Vec
	colSum linalg.Vec
	ySum   float64
	n      float64
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
	machines := cl.NumMachines()
	scale := cl.Scale()

	// No message combiner: the Gram-phase messages are rows of distinct
	// matrix positions that a Giraph combiner cannot merge, so the full
	// per-point volume is buffered — exactly why the plain formulation
	// "was unable to run" in the paper.
	g := bsp.NewGraph(cl)

	rng := randgen.New(cfg.Seed ^ 0x61a7)
	model := &bspModelVtx{state: lasso.Init(cfg.P), g: localGramZero(cfg.P)}
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
		return res, fmt.Errorf("lasso giraph: load: %w", err)
	}

	rowBytes := int64(8*cfg.P) + 16
	h := lasso.Hyper{Lambda: cfg.Lambda, P: cfg.P}

	// Initialization superstep 1: data vertices emit Gram rows to the
	// dimensional vertices and moment contributions to the model vertex.
	err := g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
		m := ctx.Meter()
		// The partial is fresh per vertex and nothing writes it after
		// emit, so its Gram rows go out as views, not copies.
		emit := func(part gramPartial) {
			for j := 0; j < cfg.P; j++ {
				ctx.Send(bsp.VertexID(j), &gramRowMsg{j: j, row: part.xtx.Row(j)}, rowBytes)
			}
			ctx.Send(modelVID, &miscMsg{xty: part.xty, colSum: part.colSum, ySum: part.ySum, n: part.n}, rowBytes*2)
		}
		switch d := v.Data.(type) {
		case *bspPointVtx:
			m.ChargeLinalg(cfg.P, float64(2*cfg.P), cfg.P)
			for j := 0; j < cfg.P; j++ {
				ctx.Send(bsp.VertexID(j), &gramScaledRowMsg{j: j, coef: d.x[j], x: d.x}, rowBytes)
			}
			single := &workload.RegressionData{X: []linalg.Vec{d.x}, Y: linalg.Vec{d.y}}
			g := localGram(single, cfg.P)
			ctx.Send(modelVID, &miscMsg{xty: g.xty, colSum: g.colSum, ySum: g.ySum, n: g.n}, rowBytes*2)
		case *bspBlockVtx:
			m.ChargeBulk(float64(len(d.d.X)) * lasso.GramFlops(cfg.P))
			emit(localGram(d.d, cfg.P))
		}
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("lasso giraph: gram emit: %w", err)
	}
	// Superstep 2: dimensional vertices assemble their rows and forward
	// them to the model vertex.
	err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
		switch d := v.Data.(type) {
		case *bspDimVtx:
			d.row = linalg.NewVec(cfg.P)
			for _, msg := range msgs {
				switch rm := msg.Data.(type) {
				case *gramRowMsg:
					rm.row.AddTo(d.row)
				case *gramScaledRowMsg:
					for i, xv := range rm.x {
						d.row[i] += rm.coef * xv
					}
				}
			}
			ctx.Send(modelVID, &gramRowMsg{j: d.j, row: d.row}, rowBytes)
		case *bspModelVtx:
			for _, msg := range msgs {
				if mm, ok := msg.Data.(*miscMsg); ok {
					mm.xty.AddTo(d.g.xty)
					mm.colSum.AddTo(d.g.colSum)
					d.g.ySum += mm.ySum
					d.g.n += mm.n
				}
			}
		}
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("lasso giraph: gram rows: %w", err)
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
		return res, fmt.Errorf("lasso giraph: gram assemble: %w", err)
	}
	xtx, xty, yBar, n := model.g.finish(scale)
	res.InitSec = sw.Lap()

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
