package hmmtask

import (
	"fmt"

	"mlbench/internal/linalg"
	"mlbench/internal/models/hmm"
	"mlbench/internal/psengine"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// cloneHMMModel snapshots the model for a stale worker cache.
func cloneHMMModel(m *hmm.Model) *hmm.Model {
	c := &hmm.Model{K: m.K, V: m.V, Delta0: m.Delta0.Clone(),
		Delta: make([]linalg.Vec, m.K), Psi: make([]linalg.Vec, m.K)}
	for s := 0; s < m.K; s++ {
		c.Delta[s] = m.Delta[s].Clone()
		c.Psi[s] = m.Psi[s].Clone()
	}
	return c
}

// RunPS implements the HMM Gibbs sampler on the parameter-server engine:
// workers resample their documents' hidden state chains against a cached
// (possibly stale) model, push count deltas (start, transition,
// emission; priced dense, held as sparse partials on the host), the
// servers fold them, and the driver redraws the model.
func RunPS(cl *sim.Cluster, cfg Config, psCfg psengine.Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	h := cfg.hyper()
	eng := psengine.New(cl, psCfg)

	rng := randgen.New(cfg.Seed ^ 0x64a1)
	model := hmm.Init(rng, h)

	machineDocs := make([][][]int, machines)
	machineStates := make([][][]int, machines)
	for mc := 0; mc < machines; mc++ {
		docs := genMachineDocs(cl, cfg, mc)
		states := make([][]int, len(docs))
		for i, d := range docs {
			states[i] = hmm.InitStates(rng, d, cfg.K)
		}
		machineDocs[mc] = docs
		machineStates[mc] = states
	}
	err := eng.Load("hmm-ps-load", func(w int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		words := wordsIn(machineDocs[w])
		m.ChargeTuples(words)
		return m.AllocData(int64(16*words), "ps hmm docs+states")
	})
	if err != nil {
		return res, fmt.Errorf("hmm ps: load: %w", err)
	}
	if err := eng.AllocModel(modelBytes(cfg.K, cfg.V)); err != nil {
		return res, fmt.Errorf("hmm ps: model alloc: %w", err)
	}
	res.InitSec = sw.Lap()

	// Each snapshot carries its own proposal cache: workers on stale
	// versions MH-propose from the tables that match their model snapshot.
	snap0 := cloneHMMModel(model)
	refreshProposals(cfg, nil, snap0)
	snaps := []*hmm.Model{snap0}
	scratches := make([]hmm.Scratch, machines)
	wire := float64(modelBytes(cfg.K, cfg.V))
	locals := make([]*hmm.Partial, machines)
	for iter := 0; iter < cfg.Iterations; iter++ {
		gathered := hmm.NewCounts(cfg.K, cfg.V)
		iterCopy := iter
		err := eng.RunCycle(psengine.Cycle{
			Name:      "hmm-ps-cycle",
			PullBytes: wire,
			PushBytes: wire,
			Compute: func(w, version int, m *sim.Meter) error {
				mod := snaps[version]
				local := hmm.NewPartial(cfg.K, cfg.V)
				for i, doc := range machineDocs[w] {
					m.ChargeTuples(len(doc) / 2)
					m.ChargeBulk(float64(len(doc)) * hmm.StateFlopsTier(cfg.Sampler, cfg.K) / 2)
					mod.ResampleStatesTier(m.RNG(), doc, machineStates[w][i], iterCopy, cfg.Sampler, &scratches[w])
					local.Accumulate(doc, machineStates[w][i], cl.Scale())
				}
				locals[w] = local
				return nil
			},
			Fold: func(w int, m *sim.Meter) error {
				m.ChargeLinalgAbs(1, float64(cfg.K*(cfg.V+cfg.K)+cfg.K), 1)
				gathered.Fold(locals[w])
				return nil
			},
			Apply: func(m *sim.Meter) error {
				m.ChargeLinalgAbs(cfg.K, float64(cfg.V+cfg.K), 1)
				model.UpdateModel(rng, h, gathered)
				snap := cloneHMMModel(model)
				refreshProposals(cfg, m, snap)
				snaps = append(snaps, snap)
				return nil
			},
		})
		if err != nil {
			return res, fmt.Errorf("hmm ps iter %d: %w", iter, err)
		}
		for v := 0; v < len(snaps)-(eng.Staleness()+1); v++ {
			snaps[v] = nil
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}
	recordQuality(cl, cfg, model, machineStates[0], machineDocs[0], res)
	return res, nil
}
