package lassotask

import (
	"fmt"

	"math"

	"mlbench/internal/gas"
	"mlbench/internal/linalg"
	"mlbench/internal/models/lasso"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/workload"
)

// Vertex layout: model vertices (one per regressor) at [0, P), the center
// vertex at centerID, data super vertices above svBase.
const (
	centerID gas.VertexID = 1 << 40
	svBase   gas.VertexID = 1 << 41
)

type lassoCenter struct {
	state *lasso.State
	sse   float64
}

type lassoModelVtx struct {
	j   int
	val float64      // current 1/tau_j^2
	rng *randgen.RNG // per-vertex stream: applies run on the vertex's machine
}

type lassoSV struct {
	d   *workload.RegressionData
	sse float64 // residual partial computed in the last apply
}

// lassoEdges: the center sits in the middle; model vertices and data
// super vertices connect only to it.
type lassoEdges struct {
	spokes []gas.VertexID // model vertices + data SVs
}

func (e *lassoEdges) Neighbors(v gas.VertexID) []gas.VertexID {
	if v == centerID {
		return e.spokes
	}
	return []gas.VertexID{centerID}
}

// lassoGather accumulates what the center collects (the auxiliary vector
// and the residual sum) — or, for spokes gathering from the center, a
// snapshot of the posterior state. Snapshotting in the gather phase is
// what keeps parallel applies race-free and deterministic: the phase
// barrier guarantees every spoke sees the previous round's (beta,
// sigma^2), never a half-written concurrent update.
type lassoGather struct {
	isModel bool
	invTau2 linalg.Vec // sparse by index; nil for data contributions
	sse     float64
	beta    linalg.Vec // spoke view: beta snapshot from the center
	sigma2  float64    // spoke view: sigma^2 snapshot
}

type lassoProg struct {
	cfg   Config
	h     lasso.Hyper
	rng   *randgen.RNG
	yBar  float64
	n     float64
	xtx   *linalg.Mat
	xty   linalg.Vec
	scale float64
}

func (p *lassoProg) ViewBytes(v *gas.Vertex) int64 {
	switch v.Data.(type) {
	case *lassoCenter:
		return int64(8 * (p.cfg.P + 2))
	case *lassoModelVtx:
		return 16
	default:
		return 16
	}
}

func (p *lassoProg) Gather(m *sim.Meter, v, nbr *gas.Vertex) any {
	switch nd := nbr.Data.(type) {
	case *lassoCenter:
		// Model vertices and data SVs gather the (beta, sigma^2) view.
		return lassoGather{isModel: true, beta: nd.state.Beta.Clone(), sigma2: nd.state.Sigma2}
	case *lassoModelVtx:
		return lassoGather{invTau2: oneHot(p.cfg.P, nd.j, nd.val)}
	case *lassoSV:
		m.ChargeLinalgAbs(1, 2, 1)
		return lassoGather{sse: nd.sse}
	}
	return lassoGather{}
}

func oneHot(p, j int, v float64) linalg.Vec {
	out := linalg.NewVec(p)
	out[j] = v
	return out
}

func (p *lassoProg) Sum(m *sim.Meter, a, b any) any {
	av, bv := a.(lassoGather), b.(lassoGather)
	if av.isModel {
		return av
	}
	if bv.invTau2 != nil {
		if av.invTau2 == nil {
			av.invTau2 = linalg.NewVec(p.cfg.P)
		}
		bv.invTau2.AddTo(av.invTau2)
	}
	av.sse += bv.sse
	return av
}

func (p *lassoProg) Apply(m *sim.Meter, v *gas.Vertex, acc any) {
	cfg := p.cfg
	switch d := v.Data.(type) {
	case *lassoCenter:
		if acc == nil {
			return
		}
		gv := acc.(lassoGather)
		if gv.invTau2 != nil {
			copy(d.state.InvTau2, gv.invTau2)
		}
		d.sse = gv.sse * p.scale
		m.ChargeBulkSerialAbs(lasso.BetaFlops(cfg.P))
		if err := lasso.SampleBeta(p.rng, d.state, p.xtx, p.xty); err == nil {
			lasso.SampleSigma2(p.rng, d.state, p.n, d.sse)
		}
	case *lassoModelVtx:
		// Resample 1/tau_j^2 from the gathered (beta_j, sigma^2).
		gv, ok := acc.(lassoGather)
		if !ok || gv.beta == nil {
			return
		}
		m.ChargeLinalgAbs(1, 8, 1)
		b2 := gv.beta[d.j] * gv.beta[d.j]
		if b2 < 1e-300 {
			b2 = 1e-300
		}
		l2 := p.h.Lambda * p.h.Lambda
		mu := math.Sqrt(l2 * gv.sigma2 / b2)
		if mu > 1e12 {
			mu = 1e12
		}
		d.val = d.rng.InvGaussian(mu, l2)
	case *lassoSV:
		gv, ok := acc.(lassoGather)
		if !ok || gv.beta == nil {
			return
		}
		m.ChargeBulk(float64(len(d.d.X)) * 2 * float64(cfg.P))
		d.sse = sseOf(d.d, gv.beta, p.yBar)
	}
}

// RunGraphLab implements the paper's Section 6.3 GraphLab Bayesian Lasso
// (super-vertex based, as the paper's was). Initialization uses
// map_reduce_vertices to compute the Gram matrix and center the response
// — local C++ matrix math plus a tree reduce, which is why GraphLab
// initializes in about half a minute while SimSQL and Spark take hours.
func RunGraphLab(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)

	rng := randgen.New(cfg.Seed ^ 0x91a7)
	prog := &lassoProg{cfg: cfg, h: lasso.Hyper{Lambda: cfg.Lambda, P: cfg.P}, rng: rng, scale: cl.Scale()}
	g, center, machineData, err := loadGraphLab(cl, cfg, rng)
	if g.Clamped() {
		res.Note("GraphLab booted on %d of %d machines", g.EffectiveMachines(), cl.NumMachines())
	}
	if err != nil {
		return res, err
	}
	acc, err := graphlabGram(g, cfg, machineData)
	if err != nil {
		return res, err
	}
	prog.xtx, prog.xty, prog.yBar, prog.n = acc.finish(cl.Scale())
	res.InitSec = sw.Lap()

	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := g.RunRound(prog, nil); err != nil {
			return res, fmt.Errorf("lasso graphlab iter %d: %w", iter, err)
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(chainPoint(cfg, center.state.Beta))
	}
	recordQuality(cfg, center.state.Beta, res)
	return res, nil
}

// loadGraphLab builds and loads the Lasso graph: one data super vertex
// per core, the P model vertices and the center. It returns each
// booted machine's data, which the super vertices slice, and the graph
// even when loading fails.
func loadGraphLab(cl *sim.Cluster, cfg Config, rng *randgen.RNG) (*gas.Graph, *lassoCenter, []*workload.RegressionData, error) {
	g := gas.NewGraph(cl, nil)
	center := &lassoCenter{state: lasso.Init(cfg.P)}
	var spokes []gas.VertexID
	svPerMachine := cl.Config().Cores
	machineData := make([]*workload.RegressionData, g.EffectiveMachines())
	for mc := range machineData {
		d := genMachineData(cl, cfg, mc)
		machineData[mc] = d
		for s := 0; s < svPerMachine; s++ {
			lo, hi := s*len(d.X)/svPerMachine, (s+1)*len(d.X)/svPerMachine
			if lo == hi {
				continue
			}
			sub := &workload.RegressionData{X: d.X[lo:hi], Y: d.Y[lo:hi]}
			id := svBase + gas.VertexID(mc*svPerMachine+s)
			bytes := int64(float64((hi-lo)*(8*cfg.P+8)) * cl.Scale())
			g.AddVertex(id, &lassoSV{d: sub}, bytes, false, mc)
			spokes = append(spokes, id)
		}
	}
	for j := 0; j < cfg.P; j++ {
		id := gas.VertexID(j)
		// Model vertices live on different machines and resample tau in
		// parallel applies, so each gets its own split RNG stream.
		g.AddVertex(id, &lassoModelVtx{j: j, rng: rng.Split(uint64(j) + 1)}, 16, false, j%g.EffectiveMachines())
		spokes = append(spokes, id)
	}
	g.AddVertex(centerID, center, int64(8*(cfg.P+2)), false, 0)
	g.SetEdges(&lassoEdges{spokes: spokes})
	if err := g.Load(); err != nil {
		return g, nil, nil, fmt.Errorf("lasso graphlab: load: %w", err)
	}
	return g, center, machineData, nil
}

// graphlabGram runs the initialization: two map_reduce_vertices passes —
// Gram matrix / centered response, then X^T y — charged as local C++
// matrix math with one partial matrix per machine up the tree. The
// passes carry rows markers, not partials; the statistics are folded on
// the driver, machine by machine through one scratch row.
func graphlabGram(g *gas.Graph, cfg Config, machineData []*workload.RegressionData) (gramAcc, error) {
	if _, err := g.MapReduceVertices(int64(8*cfg.P*cfg.P), func(m *sim.Meter, v *gas.Vertex) any {
		if sv, ok := v.Data.(*lassoSV); ok {
			m.ChargeBulk(float64(len(sv.d.X)) * lasso.GramFlops(cfg.P))
			return sv.d
		}
		return nil
	}, func(m *sim.Meter, a, b any) any {
		switch {
		case a != nil && b != nil:
			m.ChargeBulkAbs(float64(cfg.P * cfg.P))
			return a
		case a != nil:
			return a
		default:
			return b
		}
	}); err != nil {
		return gramAcc{}, err
	}
	acc := newGram(cfg.P)
	scratch := make([]float64, cfg.P)
	for _, d := range machineData {
		acc.add(d, scratch)
	}
	// Second pass: X^T y (already folded above; charge the pass).
	if _, err := g.MapReduceVertices(int64(8*cfg.P), func(m *sim.Meter, v *gas.Vertex) any {
		if sv, ok := v.Data.(*lassoSV); ok {
			m.ChargeBulk(float64(len(sv.d.X)) * 2 * float64(cfg.P))
		}
		return nil
	}, func(m *sim.Meter, a, b any) any { return nil }); err != nil {
		return gramAcc{}, err
	}
	return acc, nil
}
