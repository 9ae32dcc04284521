package ldatask

import (
	"fmt"

	"mlbench/internal/gas"
	"mlbench/internal/models/lda"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// GraphLab vertex layout: the model vertex at 0, data super vertices
// above glDataBase.
const glDataBase gas.VertexID = 1 << 41

// glSVVtx is a super vertex of documents; its exported view is its full
// g(t, w) count set.
type glSVVtx struct {
	docs []*lda.Doc
}

// glModelVtx holds phi.
type glModelVtx struct{}

// glEdges: a star with the model vertex at the center.
type glEdges struct {
	svIDs []gas.VertexID
}

func (e *glEdges) Neighbors(v gas.VertexID) []gas.VertexID {
	if v == 0 {
		return e.svIDs
	}
	return []gas.VertexID{0}
}

// glState carries the chain state across rounds.
type glState struct {
	cfg    Config
	h      lda.Hyper
	model  *lda.Model
	counts *lda.WordCounts
	scale  float64
}

type glGather struct {
	isModel bool
	docs    []*lda.Doc
	counts  *lda.WordCounts
}

type glProg struct{ st *glState }

func (p *glProg) ViewBytes(v *gas.Vertex) int64 {
	if _, ok := v.Data.(*glSVVtx); ok {
		// The full exported count set — GraphLab vertices "export a
		// single view of their internals", so the model vertex pulls the
		// whole thing from every super vertex.
		return countsViewBytes(p.st.cfg.T, p.st.cfg.V)
	}
	return modelBytes(p.st.cfg.T, p.st.cfg.V)
}

func (p *glProg) Gather(m *sim.Meter, v, nbr *gas.Vertex) any {
	if _, ok := v.Data.(*glSVVtx); ok {
		return glGather{isModel: true}
	}
	sv := nbr.Data.(*glSVVtx)
	m.ChargeLinalgAbs(1, float64(p.st.cfg.T*p.st.cfg.V), 1)
	return glGather{docs: sv.docs}
}

func (p *glProg) Sum(m *sim.Meter, a, b any) any {
	av, bv := a.(glGather), b.(glGather)
	if av.isModel {
		return av
	}
	m.ChargeLinalgAbs(1, float64(p.st.cfg.T*p.st.cfg.V), 1)
	if av.counts == nil {
		av.counts = lda.NewWordCounts(p.st.cfg.T, p.st.cfg.V)
		for _, d := range av.docs {
			av.counts.Accumulate(d, p.st.scale)
		}
		av.docs = nil
	}
	for _, d := range bv.docs {
		av.counts.Accumulate(d, p.st.scale)
	}
	return av
}

func (p *glProg) Apply(m *sim.Meter, v *gas.Vertex, acc any) {
	cfg := p.st.cfg
	switch d := v.Data.(type) {
	case *glSVVtx:
		for _, doc := range d.docs {
			m.ChargeBulk(float64(len(doc.Words)) * lda.ZFlopsTier(cfg.Sampler, cfg.T))
			p.st.model.ResampleZTier(m.RNG(), doc, cfg.Sampler)
			doc.ResampleTheta(m.RNG(), p.st.h)
		}
	case *glModelVtx:
		if acc == nil {
			return
		}
		gv := acc.(glGather)
		if gv.isModel {
			return
		}
		if gv.counts == nil {
			gv.counts = lda.NewWordCounts(cfg.T, cfg.V)
			for _, doc := range gv.docs {
				gv.counts.Accumulate(doc, p.st.scale)
			}
		}
		p.st.counts = gv.counts
	}
}

// RunGraphLab implements the super-vertex GraphLab LDA of Figure 4(b):
// it runs at 5 machines (39:27 per iteration) but the simultaneous
// materialization of every super vertex's dense topic-word count view at
// the model vertex — five times the HMM's model size, multiplied by the
// asynchronous engine's in-flight depth — fails at 20 machines and up.
func RunGraphLab(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	cfg.Variant = VariantSV
	res := &task.Result{}
	sw := task.NewStopwatch(cl)

	g := gas.NewGraph(cl, nil)
	if g.Clamped() {
		res.Note("GraphLab booted on %d of %d machines", g.EffectiveMachines(), cl.NumMachines())
	}
	rng := randgen.New(cfg.Seed ^ 0x1da4)
	h := cfg.hyper()
	st := &glState{cfg: cfg, h: h, scale: cl.Scale()}
	st.model = lda.Init(rng, h)
	refreshProposals(cfg, nil, st.model)

	var svIDs []gas.VertexID
	machineDocs := make([][]*lda.Doc, g.EffectiveMachines())
	for mc := 0; mc < g.EffectiveMachines(); mc++ {
		words := genMachineDocs(cl, cfg, mc)
		docs := make([]*lda.Doc, len(words))
		for i, w := range words {
			docs[i] = lda.InitDoc(rng, w, h)
		}
		machineDocs[mc] = docs
		nsv := cfg.SVPerMachine
		for s := 0; s < nsv; s++ {
			lo, hi := s*len(docs)/nsv, (s+1)*len(docs)/nsv
			sv := &glSVVtx{docs: docs[lo:hi]}
			var wordCount int
			for _, d := range sv.docs {
				wordCount += len(d.Words)
			}
			id := glDataBase + gas.VertexID(mc*cfg.SVPerMachine+s)
			bytes := int64(float64(16*wordCount) * cl.Scale())
			g.AddVertex(id, sv, bytes, false, mc)
			svIDs = append(svIDs, id)
		}
	}
	g.AddVertex(0, &glModelVtx{}, modelBytes(cfg.T, cfg.V), false, 0)
	g.SetEdges(&glEdges{svIDs: svIDs})
	if err := g.Load(); err != nil {
		return res, fmt.Errorf("lda graphlab: load: %w", err)
	}
	res.InitSec = sw.Lap()

	prog := &glProg{st: st}
	for iter := 0; iter < cfg.Iterations; iter++ {
		st.counts = nil
		if err := g.RunRound(prog, nil); err != nil {
			return res, fmt.Errorf("lda graphlab iter %d: %w", iter, err)
		}
		if st.counts == nil {
			return res, fmt.Errorf("lda graphlab iter %d: no counts gathered", iter)
		}
		if err := cl.RunDriver("lda-gl-update", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
			st.model.UpdatePhi(rng, h, st.counts)
			refreshProposals(cfg, m, st.model)
			return nil
		}); err != nil {
			return res, err
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}
	recordQuality(cfg, st.model, machineDocs[0], res)
	return res, nil
}
