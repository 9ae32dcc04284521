package hmmtask

import (
	"fmt"

	"mlbench/internal/gas"
	"mlbench/internal/models/hmm"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// GraphLab vertex layout: state vertices at [0, K), data super vertices
// above glDataBase.
const glDataBase gas.VertexID = 1 << 41

// glSVVtx is a super vertex holding a block of documents; its exported
// view is the full set of f/g/h count statistics for the block — the
// "around 10MB of data" per super vertex whose simultaneous
// materialization at the state vertices kills GraphLab beyond 5 machines.
type glSVVtx struct {
	docs   [][]int
	states [][]int
	counts *hmm.Partial
	sc     hmm.Scratch
}

// glStateVtx is one hidden state.
type glStateVtx struct{ s int }

// glHMMEdges: complete bipartite between super vertices and state
// vertices, expressed implicitly.
type glHMMEdges struct {
	svIDs    []gas.VertexID
	stateIDs []gas.VertexID
}

func (e *glHMMEdges) Neighbors(v gas.VertexID) []gas.VertexID {
	if v >= glDataBase {
		return e.stateIDs
	}
	return e.svIDs
}

// glHMMState carries the model across rounds.
type glHMMState struct {
	cfg    Config
	h      hmm.Hyper
	model  *hmm.Model
	rng    *randgen.RNG
	counts *hmm.Counts // gathered this round by state vertex 0
	scale  float64
	iter   int
}

// glHMMGather is one gather contribution or accumulator: a super
// vertex's partial (by reference) or state vertex 0's dense total.
type glHMMGather struct {
	isModel bool
	part    *hmm.Partial
	total   *hmm.Counts
}

type glHMMProg struct{ st *glHMMState }

func (p *glHMMProg) ViewBytes(v *gas.Vertex) int64 {
	if _, ok := v.Data.(*glSVVtx); ok {
		return countsViewBytes(p.st.cfg.K, p.st.cfg.V)
	}
	return modelBytes(p.st.cfg.K, p.st.cfg.V) / int64(p.st.cfg.K)
}

func (p *glHMMProg) Gather(m *sim.Meter, v, nbr *gas.Vertex) any {
	if _, ok := v.Data.(*glSVVtx); ok {
		return glHMMGather{isModel: true}
	}
	sv := nbr.Data.(*glSVVtx)
	m.ChargeLinalgAbs(1, float64(p.st.cfg.K*p.st.cfg.V), 1)
	if v.Data.(*glStateVtx).s != 0 {
		// Only state vertex 0's statistics are read (Apply); the others
		// pay the same gather and sum charges but fold nothing.
		return glHMMGather{}
	}
	return glHMMGather{part: sv.counts}
}

func (p *glHMMProg) Sum(m *sim.Meter, a, b any) any {
	av, bv := a.(glHMMGather), b.(glHMMGather)
	if av.isModel {
		return av
	}
	m.ChargeLinalgAbs(1, float64(p.st.cfg.K*p.st.cfg.V), 1)
	if bv.part == nil {
		return av
	}
	av.fold(p.st.cfg)
	av.total.Fold(bv.part)
	return av
}

// fold makes g's statistics a dense total it owns.
func (g *glHMMGather) fold(cfg Config) {
	if g.total == nil {
		g.total = hmm.NewCounts(cfg.K, cfg.V)
		g.total.Fold(g.part)
		g.part = nil
	}
}

func (p *glHMMProg) Apply(m *sim.Meter, v *gas.Vertex, acc any) {
	cfg := p.st.cfg
	switch d := v.Data.(type) {
	case *glSVVtx:
		c := hmm.NewPartial(cfg.K, cfg.V)
		for i, doc := range d.docs {
			m.ChargeBulk(float64(len(doc)) * hmm.StateFlopsTier(cfg.Sampler, cfg.K) / 2)
			p.st.model.ResampleStatesTier(m.RNG(), doc, d.states[i], p.roundIter(), cfg.Sampler, &d.sc)
			c.Accumulate(doc, d.states[i], p.st.scale)
		}
		d.counts = c
	case *glStateVtx:
		if acc == nil {
			return
		}
		gv := acc.(glHMMGather)
		if d.s == 0 && !gv.isModel {
			gv.fold(cfg)
			p.st.counts = gv.total
		}
	}
}

// roundIter returns the current Gibbs iteration (tracked externally).
func (p *glHMMProg) roundIter() int { return p.st.iter }

// RunGraphLab implements the super-vertex GraphLab HMM of Figure 3(b).
// It runs at 5 machines (20:39 per iteration in the paper) but the
// simultaneous materialization of every super vertex's ~10MB count view
// at the state vertices — multiplied by the asynchronous engine's
// in-flight depth — exhausts memory at 20 machines and beyond.
func RunGraphLab(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	cfg.Variant = VariantSV
	res := &task.Result{}
	sw := task.NewStopwatch(cl)

	g := gas.NewGraph(cl, nil)
	if g.Clamped() {
		res.Note("GraphLab booted on %d of %d machines", g.EffectiveMachines(), cl.NumMachines())
	}
	rng := randgen.New(cfg.Seed ^ 0x94a1)
	h := cfg.hyper()
	st := &glHMMState{cfg: cfg, h: h, rng: rng, scale: cl.Scale()}
	st.model = hmm.Init(rng, h)
	refreshProposals(cfg, nil, st.model)

	var svIDs, stateIDs []gas.VertexID
	machineDocs := make([][][]int, g.EffectiveMachines())
	for mc := 0; mc < g.EffectiveMachines(); mc++ {
		docs := genMachineDocs(cl, cfg, mc)
		machineDocs[mc] = docs
		nsv := cfg.SVPerMachine // super vertices partition the paper-scale corpus; blocks may be empty at high scale-down
		for s := 0; s < nsv; s++ {
			lo, hi := s*len(docs)/nsv, (s+1)*len(docs)/nsv
			sv := &glSVVtx{docs: docs[lo:hi]}
			var words int
			for _, d := range sv.docs {
				sv.states = append(sv.states, hmm.InitStates(rng, d, cfg.K))
				words += len(d)
			}
			sv.counts = hmm.NewPartial(cfg.K, cfg.V)
			for i, d := range sv.docs {
				sv.counts.Accumulate(d, sv.states[i], cl.Scale())
			}
			id := glDataBase + gas.VertexID(mc*cfg.SVPerMachine+s)
			bytes := int64(float64(2*8*words) * cl.Scale())
			g.AddVertex(id, sv, bytes, false, mc)
			svIDs = append(svIDs, id)
		}
	}
	for s := 0; s < cfg.K; s++ {
		id := gas.VertexID(s)
		g.AddVertex(id, &glStateVtx{s: s}, modelBytes(cfg.K, cfg.V)/int64(cfg.K), false, s%g.EffectiveMachines())
		stateIDs = append(stateIDs, id)
	}
	g.SetEdges(&glHMMEdges{svIDs: svIDs, stateIDs: stateIDs})
	if err := g.Load(); err != nil {
		return res, fmt.Errorf("hmm graphlab: load: %w", err)
	}
	res.InitSec = sw.Lap()

	prog := &glHMMProg{st: st}
	for iter := 0; iter < cfg.Iterations; iter++ {
		st.iter = iter
		st.counts = nil
		if err := g.RunRound(prog, nil); err != nil {
			return res, fmt.Errorf("hmm graphlab iter %d: %w", iter, err)
		}
		if st.counts == nil {
			return res, fmt.Errorf("hmm graphlab iter %d: no counts gathered", iter)
		}
		if err := cl.RunDriver("hmm-gl-update", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			m.ChargeLinalgAbs(cfg.K, float64(cfg.V+cfg.K), 1)
			st.model.UpdateModel(rng, h, st.counts)
			refreshProposals(cfg, m, st.model)
			return nil
		}); err != nil {
			return res, err
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}

	// Quality diagnostic from machine 0's super vertices.
	var docs [][]int
	var states [][]int
	for _, id := range svIDs {
		v := g.Vertex(id)
		if v.Machine() != 0 {
			continue
		}
		sv := v.Data.(*glSVVtx)
		docs = append(docs, sv.docs...)
		states = append(states, sv.states...)
	}
	recordQuality(cl, cfg, st.model, states, docs, res)
	return res, nil
}
