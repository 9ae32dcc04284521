package gmmtask

import (
	"fmt"

	"mlbench/internal/linalg"
	"mlbench/internal/models/gmm"
	"mlbench/internal/psengine"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// cloneParams snapshots the model for a stale worker cache. The clone
// re-runs Prepare, and Cholesky is deterministic, so sampling against a
// snapshot is bit-identical to sampling against the live model at the
// same version — which is what makes the s=0 chains equal Giraph's.
func cloneParams(p *gmm.Params) (*gmm.Params, error) {
	c := &gmm.Params{K: p.K, D: p.D, Pi: p.Pi.Clone()}
	c.Mu = make([]linalg.Vec, p.K)
	c.Sigma = make([]*linalg.Mat, p.K)
	for k := 0; k < p.K; k++ {
		c.Mu[k] = p.Mu[k].Clone()
		c.Sigma[k] = p.Sigma[k].Clone()
	}
	return c, c.Prepare()
}

// RunPS implements the GMM Gibbs sampler on the parameter-server engine:
// workers sample memberships against their (possibly stale) cached model
// and push per-cluster sufficient statistics; the servers fold them and
// the driver redraws the model. Machine RNG consumption (one uniform
// draw per point at init, one membership draw per point per cycle) and
// the fold's floating-point order mirror the Giraph implementation
// exactly, so at staleness 0 the two engines produce identical chains.
func RunPS(cl *sim.Cluster, cfg Config, psCfg psengine.Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	eng := psengine.New(cl, psCfg)

	srcs := machineSources(cl, cfg, machines)
	err := eng.Load("gmm-ps-load", func(w int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeTuples(srcs[w].Len())
		return m.AllocData(int64(srcs[w].Len())*pointBytes(sim.ProfileCPP, cfg.D), "ps gmm data")
	})
	if err != nil {
		return res, fmt.Errorf("gmm ps: load: %w", err)
	}

	mean, variance := momentsOfSources(srcs, cfg.D)
	h := gmm.HyperFromMoments(cfg.K, mean, variance)
	rng := randgen.New(cfg.Seed ^ 0x61a4)
	var params *gmm.Params
	err = cl.RunDriver("gmm-ps-init", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeLinalgAbs(cfg.K, gmm.UpdateFlops(1, cfg.D), cfg.D)
		var e error
		params, e = gmm.Init(rng, h)
		return e
	})
	if err != nil {
		return res, err
	}
	if err := eng.AllocModel(params.Bytes()); err != nil {
		return res, fmt.Errorf("gmm ps: model alloc: %w", err)
	}
	// Initial memberships: one uniform draw per point, in point order, on
	// the machine RNG stream — the same consumption as the Giraph init
	// superstep. The values are never read (the first cycle resamples from
	// the model), but drawing them keeps the streams aligned.
	err = eng.Load("gmm-ps-init-members", func(w int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeTuples(srcs[w].Len())
		for i := 0; i < srcs[w].Len(); i++ {
			_ = m.RNG().Intn(cfg.K)
		}
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("gmm ps: init members: %w", err)
	}
	res.InitSec = sw.Lap()

	// snaps[v] is the model after v applied cycles; workers at version v
	// read snaps[v]. Entries older than the staleness window are dropped.
	snap0, err := cloneParams(params)
	if err != nil {
		return res, err
	}
	snaps := []*gmm.Params{snap0}

	pullB := float64(params.Bytes())
	pushB := float64(cfg.K) * float64(statBytes(cfg.D))
	diagSrc := srcs[0]
	locals := make([]*gmm.Stats, machines)
	for iter := 0; iter < cfg.Iterations; iter++ {
		gathered := gmm.NewStats(cfg.K, cfg.D)
		err := eng.RunCycle(psengine.Cycle{
			Name:      "gmm-ps-cycle",
			PullBytes: pullB,
			PushBytes: pushB,
			Compute: func(w, version int, m *sim.Meter) error {
				p := snaps[version]
				local := gmm.NewStats(cfg.K, cfg.D)
				srcs[w].Each(func(x linalg.Vec) {
					m.ChargeLinalg(cfg.K+1, (gmm.MembershipFlops(cfg.K, cfg.D)+float64(cfg.D*cfg.D))/float64(cfg.K+1), cfg.D)
					local.Add(p.SampleMembership(m.RNG(), x), x, 1)
				})
				locals[w] = local
				return nil
			},
			Fold: func(w int, m *sim.Meter) error {
				gathered.Merge(locals[w])
				return nil
			},
			Apply: func(m *sim.Meter) error {
				m.ChargeLinalgAbs(1, gmm.UpdateFlops(cfg.K, cfg.D), cfg.D)
				gathered.Scale(cl.Scale())
				if err := gmm.UpdateParams(rng, h, params, gathered); err != nil {
					return err
				}
				s, err := cloneParams(params)
				if err != nil {
					return err
				}
				snaps = append(snaps, s)
				return nil
			},
		})
		if err != nil {
			return res, fmt.Errorf("gmm ps iter %d: %w", iter, err)
		}
		for v := 0; v < len(snaps)-(eng.Staleness()+1); v++ {
			snaps[v] = nil
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(chainPoint(diagSrc, params))
	}
	recordQuality(cl, cfg, params, res)
	return res, nil
}
