package gmmtask

import (
	"fmt"

	"mlbench/internal/gas"
	"mlbench/internal/linalg"
	"mlbench/internal/models/gmm"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// Vertex id layout for the GMM graphs: cluster vertices at [0, K),
// the mixture-proportion vertex at mixID, data vertices above dataBase.
const (
	mixID    gas.VertexID = 1 << 40
	dataBase gas.VertexID = 1 << 41
)

// dataVtx is one data point's state: the point and its membership; its
// exported view is the (c, x, scatter) triple of Section 5.3.
type dataVtx struct {
	x linalg.Vec
	c int
}

// svVtx is a super vertex: a block [lo, hi) of one machine's point
// stream with pre-aggregated statistics as its exported view. The block
// is regenerated from the source each time it is walked, so no
// paper-scale points stay resident between phases.
type svVtx struct {
	src    *sim.Source[linalg.Vec]
	lo, hi int
	stats  *gmm.Stats
}

// n returns the block's point count.
func (v *svVtx) n() int { return v.hi - v.lo }

// each streams the block's points through fn in stream order.
func (v *svVtx) each(fn func(linalg.Vec)) { v.src.EachRange(v.lo, v.hi, fn) }

// clusVtx is one mixture component; mixVtx holds the proportions.
type clusVtx struct{ k int }
type mixVtx struct{}

// gmmEdges is the Section 5.3 topology — data vertices and cluster
// vertices form a complete bipartite graph, and the mixture vertex
// connects to every data vertex — expressed implicitly for O(1) neighbor
// lookups.
type gmmEdges struct {
	dataIDs   []gas.VertexID
	modelSide []gas.VertexID // clusters + mixture vertex
}

func (e *gmmEdges) Neighbors(v gas.VertexID) []gas.VertexID {
	if v >= dataBase {
		return e.modelSide
	}
	return e.dataIDs
}

// glState carries the model across rounds.
type glState struct {
	cfg    Config
	h      gmm.Hyper
	params *gmm.Params
	stats  *gmm.Stats // gathered this round (set by cluster vertex 0)
}

// gatherVal is a lazily accumulated gather contribution: a single data
// point, a super vertex's statistics (by reference), or an accumulator.
type gatherVal struct {
	isModel bool
	c       int
	x       linalg.Vec
	sv      *gmm.Stats
	acc     *gmm.Stats
}

// glProgram is the gather-apply-scatter program of Section 5.3.
type glProgram struct{ st *glState }

func (p *glProgram) ViewBytes(v *gas.Vertex) int64 {
	switch d := v.Data.(type) {
	case *dataVtx:
		return statBytes(p.st.cfg.D)
	case *svVtx:
		_ = d
		return int64(p.st.cfg.K) * statBytes(p.st.cfg.D)
	case *clusVtx:
		return modelMsgBytes(p.st.cfg.D)
	default:
		return int64(8 * p.st.cfg.K)
	}
}

func (p *glProgram) Gather(m *sim.Meter, v, nbr *gas.Vertex) any {
	if _, ok := v.Data.(*dataVtx); ok {
		return gatherVal{isModel: true}
	}
	if _, ok := v.Data.(*svVtx); ok {
		return gatherVal{isModel: true}
	}
	// Only cluster vertex 0's statistics are read (Apply); the other
	// model-side vertices pay the same gather and sum charges but fold
	// nothing.
	cv, ok := v.Data.(*clusVtx)
	reads := ok && cv.k == 0
	switch nd := nbr.Data.(type) {
	case *dataVtx:
		m.ChargeLinalg(1, float64(p.st.cfg.D), p.st.cfg.D)
		if !reads {
			return gatherVal{}
		}
		return gatherVal{c: nd.c, x: nd.x}
	case *svVtx:
		m.ChargeLinalgAbs(1, float64(p.st.cfg.K*p.st.cfg.D), p.st.cfg.D)
		if !reads {
			return gatherVal{}
		}
		return gatherVal{sv: nd.stats}
	default:
		return gatherVal{isModel: true}
	}
}

// absorb folds a single contribution into the accumulator.
func (g *gatherVal) absorb(cfg Config, o gatherVal) {
	if g.acc == nil {
		g.acc = gmm.NewStats(cfg.K, cfg.D)
		if g.x != nil {
			g.acc.Add(g.c, g.x, 1)
			g.x = nil
		}
		if g.sv != nil {
			g.acc.Merge(g.sv)
			g.sv = nil
		}
	}
	if o.acc != nil {
		g.acc.Merge(o.acc)
	}
	if o.x != nil {
		g.acc.Add(o.c, o.x, 1)
	}
	if o.sv != nil {
		g.acc.Merge(o.sv)
	}
}

func (p *glProgram) Sum(m *sim.Meter, a, b any) any {
	av, bv := a.(gatherVal), b.(gatherVal)
	if av.isModel {
		return av
	}
	// Accumulator merging happens at the model-side vertices and is not
	// data-proportional.
	m.ChargeLinalgAbs(1, float64(p.st.cfg.D*p.st.cfg.D), p.st.cfg.D)
	if bv.x != nil || bv.sv != nil {
		av.absorb(p.st.cfg, bv)
	}
	return av
}

func (p *glProgram) Apply(m *sim.Meter, v *gas.Vertex, acc any) {
	cfg := p.st.cfg
	switch d := v.Data.(type) {
	case *dataVtx:
		m.ChargeLinalg(1, gmm.MembershipFlops(cfg.K, cfg.D)+float64(cfg.D*cfg.D), cfg.D)
		d.c = p.st.params.SampleMembership(m.RNG(), d.x)
	case *svVtx:
		m.ChargeLinalg(d.n()*(cfg.K+1), (gmm.MembershipFlops(cfg.K, cfg.D)+float64(cfg.D*cfg.D))/float64(cfg.K+1), cfg.D)
		d.stats = gmm.NewStats(cfg.K, cfg.D)
		d.each(func(x linalg.Vec) {
			d.stats.Add(p.st.params.SampleMembership(m.RNG(), x), x, 1)
		})
	case *clusVtx:
		if acc == nil {
			return
		}
		gv := acc.(gatherVal)
		if gv.isModel {
			return
		}
		// Vertex 0 records the gathered statistics for the model draw at
		// the end of the round.
		if d.k == 0 {
			var single gatherVal
			single.absorb(cfg, gv)
			p.st.stats = single.acc
		}
	}
}

// RunGraphLab implements the paper's Section 5.3 GraphLab GMM. Without
// cfg.SuperVertex it builds the complete bipartite per-point graph, whose
// gather phase materializes one model copy per data point and exhausts
// memory at every tested size ("Fail" throughout Figure 1(a)). With
// cfg.SuperVertex, points are grouped into cfg.SVPerMachine vertices per
// machine, matching the fast codes of Figures 1(b) and 1(c).
func RunGraphLab(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)

	g := gas.NewGraph(cl, nil)
	if g.Clamped() {
		res.Note("GraphLab booted on %d of %d machines (paper footnote: would not boot past 96)",
			g.EffectiveMachines(), cl.NumMachines())
	}

	rng := randgen.New(cfg.Seed ^ 0x91a5)
	st := &glState{cfg: cfg}
	scale := cl.Scale()

	var dataIDs []gas.VertexID
	srcs := machineSources(cl, cfg, g.EffectiveMachines())
	if cfg.SuperVertex {
		for mc, src := range srcs {
			n := src.Len()
			nsv := cfg.SVPerMachine
			if nsv > n {
				nsv = n
			}
			for s := 0; s < nsv; s++ {
				lo, hi := s*n/nsv, (s+1)*n/nsv
				id := dataBase + gas.VertexID(mc*cfg.SVPerMachine+s)
				// A super vertex is model-cardinality but stands for its
				// block's paper-scale payload.
				bytes := int64(float64((hi-lo)*8*cfg.D) * scale)
				g.AddVertex(id, &svVtx{src: src, lo: lo, hi: hi}, bytes, false, mc)
				dataIDs = append(dataIDs, id)
			}
		}
	} else {
		// The per-point formulation pins one vertex per point by design —
		// that is the layout the paper shows exhausting memory — but the
		// generation itself streams.
		next := dataBase
		for mc, src := range srcs {
			m := mc
			src.Each(func(x linalg.Vec) {
				g.AddVertex(next, &dataVtx{x: x}, int64(8*cfg.D)+16, true, m)
				dataIDs = append(dataIDs, next)
				next++
			})
		}
	}
	modelSide := make([]gas.VertexID, 0, cfg.K+1)
	for k := 0; k < cfg.K; k++ {
		id := gas.VertexID(k)
		g.AddVertex(id, &clusVtx{k: k}, modelMsgBytes(cfg.D), false, k%g.EffectiveMachines())
		modelSide = append(modelSide, id)
	}
	g.AddVertex(mixID, &mixVtx{}, int64(8*cfg.K), false, 0)
	modelSide = append(modelSide, mixID)
	g.SetEdges(&gmmEdges{dataIDs: dataIDs, modelSide: modelSide})

	if err := g.Load(); err != nil {
		return res, fmt.Errorf("gmm graphlab: load: %w", err)
	}

	// Initialization: empirical hyperparameters via map_reduce_vertices,
	// model init, then an initial membership transform.
	mean, variance := momentsOfSources(srcs, cfg.D)
	st.h = gmm.HyperFromMoments(cfg.K, mean, variance)
	if _, err := g.MapReduceVertices(int64(16*cfg.D), func(m *sim.Meter, v *gas.Vertex) any {
		if sv, ok := v.Data.(*svVtx); ok {
			m.ChargeLinalg(sv.n(), float64(2*cfg.D), cfg.D)
		} else {
			m.ChargeLinalg(1, float64(2*cfg.D), cfg.D)
		}
		return nil
	}, func(m *sim.Meter, a, b any) any { return nil }); err != nil {
		return res, err
	}
	err := cl.RunDriver("gmm-gl-init", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeLinalgAbs(cfg.K, gmm.UpdateFlops(1, cfg.D), cfg.D)
		var e error
		st.params, e = gmm.Init(rng, st.h)
		return e
	})
	if err != nil {
		return res, err
	}
	if err := g.TransformVertices(func(m *sim.Meter, v *gas.Vertex) {
		switch d := v.Data.(type) {
		case *dataVtx:
			d.c = m.RNG().Intn(cfg.K)
		case *svVtx:
			d.stats = gmm.NewStats(cfg.K, cfg.D)
			d.each(func(x linalg.Vec) {
				d.stats.Add(m.RNG().Intn(cfg.K), x, 1)
			})
		}
	}); err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	prog := &glProgram{st: st}
	diagSrc := srcs[0]
	for iter := 0; iter < cfg.Iterations; iter++ {
		st.stats = nil
		if err := g.RunRound(prog, nil); err != nil {
			return res, fmt.Errorf("gmm graphlab iter %d: %w", iter, err)
		}
		if st.stats == nil {
			return res, fmt.Errorf("gmm graphlab iter %d: no statistics gathered", iter)
		}
		stats := st.stats
		scaleStats(stats, scale)
		if err := cl.RunDriver("gmm-gl-update", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			m.ChargeLinalgAbs(1, gmm.UpdateFlops(cfg.K, cfg.D), cfg.D)
			return gmm.UpdateParams(rng, st.h, st.params, stats)
		}); err != nil {
			return res, err
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(chainPoint(diagSrc, st.params))
	}
	recordQuality(cl, cfg, st.params, res)
	return res, nil
}
