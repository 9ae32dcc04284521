package ldatask

import (
	"fmt"

	"mlbench/internal/linalg"
	"mlbench/internal/models/lda"
	"mlbench/internal/models/sparse"
	"mlbench/internal/psengine"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// cloneLDAModel snapshots phi for a stale worker cache.
func cloneLDAModel(m *lda.Model) *lda.Model {
	c := &lda.Model{T: m.T, V: m.V, Phi: make([]linalg.Vec, m.T)}
	for t := 0; t < m.T; t++ {
		c.Phi[t] = m.Phi[t].Clone()
	}
	return c
}

// RunPS implements the non-collapsed LDA Gibbs sampler on the
// parameter-server engine: the 100 x 10,000 phi matrix is exactly the
// model LightLDA-style systems shard — workers resample z/theta against
// a cached (possibly stale) phi, push topic-word count deltas (priced
// dense, held as sparse partials on the host), the servers fold them per
// parameter range, and the driver redraws phi.
// This is the workload where the parameter server's cheap asynchronous
// cycles pay off most: the per-cycle model traffic that sinks Giraph at
// scale is amortized over the staleness window.
func RunPS(cl *sim.Cluster, cfg Config, psCfg psengine.Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	h := cfg.hyper()
	eng := psengine.New(cl, psCfg)

	rng := randgen.New(cfg.Seed ^ 0x1da3)
	model := lda.Init(rng, h)

	machineDocs := make([][]*lda.Doc, machines)
	for mc := 0; mc < machines; mc++ {
		words := genMachineDocs(cl, cfg, mc)
		docs := make([]*lda.Doc, len(words))
		for i, w := range words {
			docs[i] = lda.InitDoc(rng, w, h)
		}
		machineDocs[mc] = docs
	}
	err := eng.Load("lda-ps-load", func(w int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		var words int
		for _, d := range machineDocs[w] {
			words += len(d.Words)
		}
		m.ChargeTuples(words)
		return m.AllocData(int64(16*words)+int64((8*cfg.T+64)*len(machineDocs[w])), "ps lda docs")
	})
	if err != nil {
		return res, fmt.Errorf("lda ps: load: %w", err)
	}
	if err := eng.AllocModel(modelBytes(cfg.T, cfg.V)); err != nil {
		return res, fmt.Errorf("lda ps: model alloc: %w", err)
	}
	res.InitSec = sw.Lap()

	// Each snapshot carries its own proposal cache: workers on stale
	// versions keep MH-proposing from the tables that match their phi
	// snapshot (the accept ratio corrects against that same snapshot).
	snap0 := cloneLDAModel(model)
	refreshProposals(cfg, nil, snap0)
	snaps := []*lda.Model{snap0}
	wire := float64(modelBytes(cfg.T, cfg.V))
	locals := make([]*sparse.Counts, machines)
	for iter := 0; iter < cfg.Iterations; iter++ {
		gathered := lda.NewWordCounts(cfg.T, cfg.V)
		err := eng.RunCycle(psengine.Cycle{
			Name:      "lda-ps-cycle",
			PullBytes: wire,
			PushBytes: wire,
			Compute: func(w, version int, m *sim.Meter) error {
				phi := snaps[version]
				local := sparse.New(cfg.V)
				for _, doc := range machineDocs[w] {
					m.ChargeTuples(len(doc.Words))
					m.ChargeBulk(float64(len(doc.Words)) * lda.ZFlopsTier(cfg.Sampler, cfg.T))
					phi.ResampleZTier(m.RNG(), doc, cfg.Sampler)
					doc.ResampleTheta(m.RNG(), h)
					doc.Tally(local, cl.Scale())
				}
				locals[w] = local
				return nil
			},
			Fold: func(w int, m *sim.Meter) error {
				m.ChargeLinalgAbs(1, float64(cfg.T*cfg.V), 1)
				locals[w].AddTo(gathered.G)
				return nil
			},
			Apply: func(m *sim.Meter) error {
				m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
				model.UpdatePhi(rng, h, gathered)
				snap := cloneLDAModel(model)
				refreshProposals(cfg, m, snap)
				snaps = append(snaps, snap)
				return nil
			},
		})
		if err != nil {
			return res, fmt.Errorf("lda ps iter %d: %w", iter, err)
		}
		for v := 0; v < len(snaps)-(eng.Staleness()+1); v++ {
			snaps[v] = nil
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}
	recordQuality(cfg, model, machineDocs[0], res)
	return res, nil
}
