package imputetask

import (
	"fmt"

	"mlbench/internal/bsp"
	"mlbench/internal/gas"
	"mlbench/internal/linalg"
	"mlbench/internal/models/gmm"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// Vertex id layout shared by both graph engines: cluster vertices at
// [0, K), the mixture vertex at impMixID, data at impDataBase.
const (
	impMixID    = int64(1) << 40
	impDataBase = int64(1) << 41
)

// --- GraphLab (super-vertex, as Figure 5's GraphLab row) ---

// impSVVtx is a super-vertex block of points with pre-aggregated stats.
type impSVVtx struct {
	pts   []*point
	stats *gmm.Stats
}

type impClusVtx struct{ k int }
type impMixVtx struct{}

type impEdges struct {
	dataIDs   []gas.VertexID
	modelSide []gas.VertexID
}

func (e *impEdges) Neighbors(v gas.VertexID) []gas.VertexID {
	if int64(v) >= impDataBase {
		return e.modelSide
	}
	return e.dataIDs
}

type impState struct {
	cfg    Config
	h      gmm.Hyper
	params *gmm.Params
	stats  *gmm.Stats
	scale  float64
}

type impGather struct {
	isModel bool
	stats   *gmm.Stats
	owned   bool
}

type impProg struct{ st *impState }

func (p *impProg) ViewBytes(v *gas.Vertex) int64 {
	switch v.Data.(type) {
	case *impSVVtx:
		return int64(p.st.cfg.K) * statBytes(p.st.cfg.D)
	case *impClusVtx:
		return modelMsgBytes(p.st.cfg.D)
	default:
		return int64(8 * p.st.cfg.K)
	}
}

func (p *impProg) Gather(m *sim.Meter, v, nbr *gas.Vertex) any {
	if _, ok := v.Data.(*impSVVtx); ok {
		return impGather{isModel: true}
	}
	if sv, ok := nbr.Data.(*impSVVtx); ok {
		m.ChargeLinalgAbs(1, float64(p.st.cfg.K*p.st.cfg.D), p.st.cfg.D)
		if cv, ok := v.Data.(*impClusVtx); !ok || cv.k != 0 {
			// Only cluster vertex 0's statistics are read (Apply); the
			// other model-side vertices pay the same gather and sum
			// charges but fold nothing.
			return impGather{}
		}
		return impGather{stats: sv.stats}
	}
	return impGather{isModel: true}
}

func (p *impProg) Sum(m *sim.Meter, a, b any) any {
	av, bv := a.(impGather), b.(impGather)
	if av.isModel {
		return av
	}
	m.ChargeLinalgAbs(1, float64(p.st.cfg.K*p.st.cfg.D*p.st.cfg.D), p.st.cfg.D)
	if bv.stats == nil {
		return av
	}
	if !av.owned {
		merged := gmm.NewStats(p.st.cfg.K, p.st.cfg.D)
		if av.stats != nil {
			merged.Merge(av.stats)
		}
		av.stats, av.owned = merged, true
	}
	av.stats.Merge(bv.stats)
	return av
}

func (p *impProg) Apply(m *sim.Meter, v *gas.Vertex, acc any) {
	cfg := p.st.cfg
	switch d := v.Data.(type) {
	case *impSVVtx:
		m.ChargeLinalg((cfg.K+2)*len(d.pts), pointWorkFlops(cfg.K, cfg.D)/float64(cfg.K+2), cfg.D)
		d.stats = gmm.NewStats(cfg.K, cfg.D)
		for _, pt := range d.pts {
			_ = imputePoint(m.RNG(), p.st.params, pt)
			d.stats.Add(pt.c, pt.x, 1)
		}
	case *impClusVtx:
		if acc == nil {
			return
		}
		gv := acc.(impGather)
		if gv.isModel || gv.stats == nil {
			return
		}
		if d.k == 0 {
			p.st.stats = gv.stats
		}
	}
}

// RunGraphLab implements the Figure 5 GraphLab imputation (super-vertex,
// like its GMM). The per-cluster statistic views are small, so unlike
// the HMM and LDA this code runs even on the biggest cluster —
// GraphLab's best row in the study.
func RunGraphLab(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)

	g := gas.NewGraph(cl, nil)
	if g.Clamped() {
		res.Note("GraphLab booted on %d of %d machines", g.EffectiveMachines(), cl.NumMachines())
	}
	rng := randgen.New(cfg.Seed ^ 0x17a3)
	st := &impState{cfg: cfg, scale: cl.Scale()}

	var dataIDs []gas.VertexID
	var allPts []*point
	var machine0 []*point
	for mc := 0; mc < g.EffectiveMachines(); mc++ {
		pts := genMachinePoints(cl, cfg, mc)
		allPts = append(allPts, pts...)
		if mc == 0 {
			machine0 = pts
		}
		nsv := cfg.SVPerMachine
		for s := 0; s < nsv; s++ {
			lo, hi := s*len(pts)/nsv, (s+1)*len(pts)/nsv
			sv := &impSVVtx{pts: pts[lo:hi]}
			sv.stats = gmm.NewStats(cfg.K, cfg.D)
			for _, pt := range sv.pts {
				sv.stats.Add(pt.c, pt.x, 1)
			}
			id := gas.VertexID(impDataBase + int64(mc*cfg.SVPerMachine+s))
			bytes := int64(float64((hi-lo)*2*8*cfg.D) * cl.Scale())
			g.AddVertex(id, sv, bytes, false, mc)
			dataIDs = append(dataIDs, id)
		}
	}
	modelSide := make([]gas.VertexID, 0, cfg.K+1)
	for k := 0; k < cfg.K; k++ {
		g.AddVertex(gas.VertexID(k), &impClusVtx{k: k}, modelMsgBytes(cfg.D), false, k%g.EffectiveMachines())
		modelSide = append(modelSide, gas.VertexID(k))
	}
	g.AddVertex(gas.VertexID(impMixID), &impMixVtx{}, int64(8*cfg.K), false, 0)
	modelSide = append(modelSide, gas.VertexID(impMixID))
	g.SetEdges(&impEdges{dataIDs: dataIDs, modelSide: modelSide})
	if err := g.Load(); err != nil {
		return res, fmt.Errorf("impute graphlab: load: %w", err)
	}

	st.h = hyperFrom(allPts, cfg)
	if err := cl.RunDriver("impute-gl-init", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeLinalgAbs(cfg.K, gmm.UpdateFlops(1, cfg.D), cfg.D)
		var e error
		st.params, e = gmm.Init(rng, st.h)
		return e
	}); err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	prog := &impProg{st: st}
	for iter := 0; iter < cfg.Iterations; iter++ {
		st.stats = nil
		if err := g.RunRound(prog, nil); err != nil {
			return res, fmt.Errorf("impute graphlab iter %d: %w", iter, err)
		}
		if st.stats == nil {
			return res, fmt.Errorf("impute graphlab iter %d: no statistics", iter)
		}
		stats := st.stats
		scaleStats(stats, cl.Scale())
		if err := cl.RunDriver("impute-gl-update", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			m.ChargeLinalgAbs(1, gmm.UpdateFlops(cfg.K, cfg.D), cfg.D)
			return gmm.UpdateParams(rng, st.h, st.params, stats)
		}); err != nil {
			return res, err
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}
	recordQuality(machine0, res)
	return res, nil
}

// --- Giraph (per-point, as Figure 5's Giraph row) ---

// impPtVtx is a per-point Giraph vertex.
type impPtVtx struct{ p *point }

type impBspClusVtx struct{ k int }
type impBspMixVtx struct{}

// impStatMsg carries a (n, sum, sq) contribution to one cluster.
type impStatMsg struct {
	n   float64
	sum linalg.Vec
	sq  *linalg.Mat
}

// RunGiraph implements the Figure 5 Giraph imputation: the per-point GMM
// structure of Section 5.4 with the extra imputation step. Like its GMM,
// it runs at 5 and 20 machines but the per-vertex model delivery's
// in-flight traffic kills it at 100.
func RunGiraph(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()

	g := bsp.NewGraph(cl)
	g.SetCombiner(func(a, b bsp.Msg) bsp.Msg {
		am, aok := a.Data.(*impStatMsg)
		bm, bok := b.Data.(*impStatMsg)
		if aok && bok {
			am.n += bm.n
			bm.sum.AddTo(am.sum)
			am.sq.AddInPlace(bm.sq)
			return bsp.Msg{Data: am, Bytes: a.Bytes}
		}
		return bsp.Msg{Data: []bsp.Msg{a, b}, Bytes: a.Bytes + b.Bytes}
	})

	rng := randgen.New(cfg.Seed ^ 0x17a4)
	var dataIDs []bsp.VertexID
	var allPts []*point
	var machine0 []*point
	next := impDataBase
	for mc := 0; mc < machines; mc++ {
		pts := genMachinePoints(cl, cfg, mc)
		allPts = append(allPts, pts...)
		if mc == 0 {
			machine0 = pts
		}
		for _, pt := range pts {
			g.AddVertex(bsp.VertexID(next), &impPtVtx{p: pt}, int64(2*8*cfg.D)+48, true, mc)
			dataIDs = append(dataIDs, bsp.VertexID(next))
			next++
		}
	}
	for k := 0; k < cfg.K; k++ {
		g.AddVertex(bsp.VertexID(k), &impBspClusVtx{k: k}, modelMsgBytes(cfg.D), false, k%machines)
	}
	g.AddVertex(bsp.VertexID(impMixID), &impBspMixVtx{}, int64(8*cfg.K), false, 0)
	if err := g.Load(); err != nil {
		return res, fmt.Errorf("impute giraph: load: %w", err)
	}

	h := hyperFrom(allPts, cfg)
	var params *gmm.Params
	if err := cl.RunDriver("impute-giraph-init", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileJava)
		m.ChargeLinalgAbs(cfg.K, gmm.UpdateFlops(1, cfg.D), cfg.D)
		var e error
		params, e = gmm.Init(rng, h)
		return e
	}); err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	mBytes := modelMsgBytes(cfg.D)
	sBytes := statBytes(cfg.D)
	gathered := gmm.NewStats(cfg.K, cfg.D)
	for iter := 0; iter < cfg.Iterations; iter++ {
		gathered = gmm.NewStats(cfg.K, cfg.D)
		// Superstep A: per-vertex model delivery from the cluster
		// vertices to every data vertex (the failure vector at scale).
		err := g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			if cv, ok := v.Data.(*impBspClusVtx); ok {
				for _, dst := range dataIDs {
					ctx.Send(dst, cv.k, mBytes)
				}
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("impute giraph iter %d: model: %w", iter, err)
		}
		// Superstep B: impute, resample membership, send statistics.
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			m := ctx.Meter()
			if d, ok := v.Data.(*impPtVtx); ok {
				m.ChargeLinalg(cfg.K+2, pointWorkFlops(cfg.K, cfg.D)/float64(cfg.K+2), cfg.D)
				_ = imputePoint(m.RNG(), params, d.p)
				sq := linalg.NewMat(cfg.D, cfg.D)
				sq.AddOuter(1, d.p.x, d.p.x)
				ctx.Send(bsp.VertexID(d.p.c), &impStatMsg{n: 1, sum: d.p.x.Clone(), sq: sq}, sBytes)
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("impute giraph iter %d: impute: %w", iter, err)
		}
		// Superstep C: cluster vertices merge the combined statistics.
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			if cv, ok := v.Data.(*impBspClusVtx); ok {
				for _, msg := range msgs {
					if sm, ok := msg.Data.(*impStatMsg); ok {
						gathered.N[cv.k] += sm.n
						sm.sum.AddTo(gathered.Sum[cv.k])
						gathered.SumSq[cv.k].AddInPlace(sm.sq)
					}
				}
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("impute giraph iter %d: gather: %w", iter, err)
		}
		scaleStats(gathered, cl.Scale())
		if err := cl.RunDriver("impute-giraph-update", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileJava)
			m.ChargeLinalgAbs(1, gmm.UpdateFlops(cfg.K, cfg.D), cfg.D)
			return gmm.UpdateParams(rng, h, params, gathered)
		}); err != nil {
			return res, err
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}
	recordQuality(machine0, res)
	return res, nil
}
