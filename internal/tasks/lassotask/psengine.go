package lassotask

import (
	"fmt"

	"mlbench/internal/linalg"
	"mlbench/internal/models/lasso"
	"mlbench/internal/psengine"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/workload"
)

// RunPS implements the Bayesian Lasso on the parameter-server engine.
// The Gram initialization is a single reduce: workers push their dense
// partials and the barrier's machine-order merge accumulates every point
// into one Gram accumulator — the same per-point, machine-major
// floating-point order as the Giraph dimensional-vertex assembly, so the
// initialization statistics are bit-identical. Each Gibbs cycle then
// draws tau/beta on the driver (Setup), computes residual sums against a
// possibly stale beta on the workers, folds the scalar SSE in machine
// order, and draws sigma^2 (Apply). At staleness 0 the chain equals the
// Giraph chain exactly.
func RunPS(cl *sim.Cluster, cfg Config, psCfg psengine.Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	scale := cl.Scale()
	eng := psengine.New(cl, psCfg)

	machineData := make([]*workload.RegressionData, machines)
	for mc := 0; mc < machines; mc++ {
		machineData[mc] = genMachineData(cl, cfg, mc)
	}
	err := eng.Load("lasso-ps-load", func(w int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeTuples(len(machineData[w].X))
		return m.AllocData(int64(len(machineData[w].X))*int64(8*cfg.P+8), "ps lasso data")
	})
	if err != nil {
		return res, fmt.Errorf("lasso ps: load: %w", err)
	}

	// Gram initialization: one reduce. The merge visits machines in order
	// and accumulates their points one by one into a single partial.
	g := newGram(cfg.P)
	gramBytes := float64(8 * cfg.P * (cfg.P + 2))
	err = eng.Reduce("lasso-ps-gram",
		func(w int, m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			m.ChargeBulk(float64(len(machineData[w].X)) * lasso.GramFlops(cfg.P))
			m.SendModel(0, gramBytes)
			return nil
		},
		func(w int, m *sim.Meter) error {
			d := machineData[w]
			g.xtx.AddGram(d.X)
			for i, x := range d.X {
				for j := range x {
					g.xty[j] += x[j] * d.Y[i]
					g.colSum[j] += x[j]
				}
				g.ySum += d.Y[i]
				g.n++
			}
			return nil
		})
	if err != nil {
		return res, fmt.Errorf("lasso ps: gram: %w", err)
	}
	var xtx *linalg.Mat
	var xty linalg.Vec
	var yBar, n float64
	err = cl.RunDriver("lasso-ps-gram-finish", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeBulkAbs(float64(cfg.P * cfg.P))
		if err := m.AllocModel(int64(8*cfg.P*cfg.P), "ps lasso gram"); err != nil {
			return err
		}
		xtx, xty, yBar, n = g.finish(scale)
		return nil
	})
	if err != nil {
		return res, err
	}
	if err := eng.AllocModel(int64(8 * cfg.P)); err != nil {
		return res, fmt.Errorf("lasso ps: model alloc: %w", err)
	}
	res.InitSec = sw.Lap()

	rng := randgen.New(cfg.Seed ^ 0x61a7)
	state := lasso.Init(cfg.P)
	h := lasso.Hyper{Lambda: cfg.Lambda, P: cfg.P}

	// betaHist[d] is the coefficient vector after d driver draws (index 0
	// is the zero initialization, never read: the lag clamp guarantees
	// every worker sees at least the first draw). A worker at version v
	// reads betaHist[v+1] — the draw made in cycle v's Setup.
	betaHist := []linalg.Vec{state.Beta.Clone()}

	sseLocal := make([]float64, machines)
	for iter := 0; iter < cfg.Iterations; iter++ {
		var sse float64
		err := eng.RunCycle(psengine.Cycle{
			Name:      "lasso-ps-cycle",
			PullBytes: float64(8 * cfg.P),
			PushBytes: 8,
			Setup: func(m *sim.Meter) error {
				m.ChargeLinalgAbs(cfg.P, 8, 1)
				m.ChargeBulkSerialAbs(lasso.BetaFlops(cfg.P))
				lasso.SampleInvTau2(rng, h, state)
				if err := lasso.SampleBeta(rng, state, xtx, xty); err != nil {
					return err
				}
				betaHist = append(betaHist, state.Beta.Clone())
				return nil
			},
			Compute: func(w, version int, m *sim.Meter) error {
				beta := betaHist[version+1]
				d := machineData[w]
				var acc float64
				for i, x := range d.X {
					m.ChargeLinalg(1, float64(2*cfg.P), cfg.P)
					r := (d.Y[i] - yBar) - x.Dot(beta)
					acc += r * r * scale
				}
				sseLocal[w] = acc
				return nil
			},
			Fold: func(w int, m *sim.Meter) error {
				sse += sseLocal[w]
				return nil
			},
			Apply: func(m *sim.Meter) error {
				lasso.SampleSigma2(rng, state, n, sse)
				res.Record(chainPoint(cfg, state.Beta))
				return nil
			},
		})
		if err != nil {
			return res, fmt.Errorf("lasso ps iter %d: %w", iter, err)
		}
		for d := 0; d < len(betaHist)-(eng.Staleness()+1); d++ {
			betaHist[d] = nil
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}
	recordQuality(cfg, state.Beta, res)
	return res, nil
}
