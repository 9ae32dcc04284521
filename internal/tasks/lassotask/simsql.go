package lassotask

import (
	"fmt"
	"math"

	"mlbench/internal/models/lasso"
	"mlbench/internal/randgen"
	"mlbench/internal/relational"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/workload"
)

// invGaussVG draws 1/tau_j^2 per regressor group, as the paper's
// CREATE TABLE tau[i] does.
type invGaussVG struct {
	h     lasso.Hyper
	state *lasso.State
}

func (v *invGaussVG) Name() string { return "InvGaussian" }
func (v *invGaussVG) OutSchema() relational.Schema {
	return relational.Schema{{Name: "rigid", Kind: relational.KindInt}, {Name: "tauValue", Kind: relational.KindFloat}}
}
func (v *invGaussVG) Apply(m relational.VGMeter, rows []relational.Tuple) []relational.Tuple {
	out := make([]relational.Tuple, 0, len(rows))
	for _, t := range rows {
		j := t.Int(0)
		m.ChargeOps(1, 8, 1)
		b2 := v.state.Beta[j] * v.state.Beta[j]
		if b2 < 1e-300 {
			b2 = 1e-300
		}
		l2 := v.h.Lambda * v.h.Lambda
		mu := math.Sqrt(l2 * v.state.Sigma2 / b2)
		if mu > 1e12 {
			mu = 1e12
		}
		out = append(out, relational.T(float64(j), m.RNG().InvGaussian(mu, l2)))
	}
	return out
}

// RunSimSQL implements the paper's Section 6.2 SimSQL Bayesian Lasso:
// three materialized views at initialization — the Gram matrix (an
// aggregate-GROUP BY with one group per matrix entry, the famously slow
// part), the centered response, and X^T y — then per-iteration random
// tables tau[i], beta[i] and sigma[i]. Every x_i is stored as a thousand
// (point, dim, value) tuples, so the per-iteration residual computation
// is also tuple-at-a-time.
func RunSimSQL(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	eng := relational.NewEngine(cl)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	cost := cl.Config().Cost

	// The data relation in per-dimension form: (data_id, dim_id, val),
	// plus the response (data_id, y). Dense task-local copies back the
	// Gram computation's real arithmetic.
	machineData := make([]*workload.RegressionData, machines)
	dimRows := relational.NewTable("data", relational.Schema{
		{Name: "data_id", Kind: relational.KindInt},
		{Name: "dim_id", Kind: relational.KindInt},
		{Name: "val", Kind: relational.KindFloat},
	}, machines)
	dimRows.Scaled = true
	respT := relational.NewTable("resp", relational.Schema{
		{Name: "data_id", Kind: relational.KindInt},
		{Name: "y", Kind: relational.KindFloat},
	}, machines)
	respT.Scaled = true
	nextID := 0
	for mc := 0; mc < machines; mc++ {
		d := genMachineData(cl, cfg, mc)
		machineData[mc] = d
		for i := range d.X {
			for j, v := range d.X[i] {
				dimRows.Parts[mc] = append(dimRows.Parts[mc], relational.T(float64(nextID), float64(j), v))
			}
			respT.Parts[mc] = append(respT.Parts[mc], relational.T(float64(nextID), d.Y[i]))
			nextID++
		}
	}

	g, err := simsqlGram(cl, cfg, machineData)
	if err != nil {
		return res, err
	}
	// Views 2 and 3: centered response and X^T y (two cheaper jobs over
	// the per-dim relation).
	_, err = eng.Run("xty", relational.AsModelP(relational.GroupAggP(
		relational.HashJoinP(relational.ScanT(dimRows), relational.ScanT(respT), []int{0}, []int{0}),
		[]int{1},
		[]relational.AggSpec{{Kind: relational.AggSum, Name: "xty", Expr: func(t relational.Tuple) float64 {
			return t.Float(2) * t.Float(4)
		}}})))
	if err != nil {
		return res, fmt.Errorf("lasso simsql: xty: %w", err)
	}
	xtx, xty, yBar, n := g.finish(cl.Scale())
	res.InitSec = sw.Lap()

	// Regressor-id table parameterizing the tau VG.
	ridT := relational.NewTable("rids", relational.Ints("rigid"), machines)
	for j := 0; j < cfg.P; j++ {
		ridT.Parts[j%machines] = append(ridT.Parts[j%machines], relational.T(float64(j)))
	}

	rng := randgen.New(cfg.Seed ^ 0x575b)
	h := lasso.Hyper{Lambda: cfg.Lambda, P: cfg.P}
	state := lasso.Init(cfg.P)
	for iter := 0; iter < cfg.Iterations; iter++ {
		// tau[i]: one VG invocation per regressor.
		tauT, err := eng.Run("tau", relational.VGApplyP(&invGaussVG{h: h, state: state}, 0, relational.ScanT(ridT), true))
		if err != nil {
			return res, fmt.Errorf("lasso simsql iter %d: tau: %w", iter, err)
		}
		for _, t := range tauT.Rows() {
			state.InvTau2[t.Int(0)] = t.Float(1)
		}
		// beta[i]: the A^{-1} X^T y computation runs as set-oriented
		// aggregates over the million-tuple Gram relation (two jobs),
		// then the multivariate normal draw in a VG.
		cl.Advance(2 * cost.MRJobLaunch)
		err = cl.RunDriver("lasso-simsql-beta", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileSQLEngine)
			// A = XtX + D_tau^{-1} materialized tuple-at-a-time.
			m.ChargeTuplesAbs(float64(cfg.P * cfg.P))
			m.SetProfile(sim.ProfileCPP)
			m.ChargeBulkAbs(lasso.BetaFlops(cfg.P))
			return lasso.SampleBeta(rng, state, xtx, xty)
		})
		if err != nil {
			return res, fmt.Errorf("lasso simsql iter %d: beta: %w", iter, err)
		}
		// Residuals with the new beta: join the per-dim relation with
		// beta, aggregate per point, join with the response, aggregate
		// the squares — the set-oriented arithmetic the paper blames for
		// SimSQL's per-iteration times.
		betaT := relational.NewTable("beta", relational.Schema{
			{Name: "dim_id", Kind: relational.KindInt}, {Name: "b", Kind: relational.KindFloat},
		}, machines)
		for j := 0; j < cfg.P; j++ {
			betaT.Parts[j%machines] = append(betaT.Parts[j%machines], relational.T(float64(j), state.Beta[j]))
		}
		preds := relational.GroupAggP(
			relational.HashJoinP(relational.ScanT(dimRows), relational.ScanT(betaT), []int{1}, []int{0}),
			[]int{0},
			[]relational.AggSpec{{Kind: relational.AggSum, Name: "yhat", Expr: func(t relational.Tuple) float64 {
				return t.Float(2) * t.Float(4)
			}}})
		sseT, err := eng.Run("sse", relational.AsModelP(relational.GroupAggP(
			relational.ProjectP(
				relational.HashJoinP(preds, relational.ScanT(respT), []int{0}, []int{0}),
				relational.Floats("one", "sq"),
				func(t, out relational.Tuple) {
					r := (t.Float(3) - yBar) - t.Float(1)
					out[0], out[1] = 0, r*r
				}),
			[]int{0},
			[]relational.AggSpec{{Kind: relational.AggSum, Col: 1, Name: "sse"}})))
		if err != nil {
			return res, fmt.Errorf("lasso simsql iter %d: sse: %w", iter, err)
		}
		sse := 0.0
		if rows := sseT.Rows(); len(rows) > 0 {
			sse = rows[0].Float(1) * cl.Scale()
		}
		// sigma[i].
		err = cl.RunDriver("lasso-simsql-sigma", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			lasso.SampleSigma2(rng, state, n, sse)
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("lasso simsql iter %d: sigma: %w", iter, err)
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(chainPoint(cfg, state.Beta))
	}
	recordQuality(cfg, state.Beta, res)
	return res, nil
}

// simsqlGram runs materialized view 1, the Gram matrix: one MR job whose
// mapper expands every point into P^2 partial products folded by the
// combiner (one group per Gram entry). The virtual cost is charged for
// the full paper-scale expansion; the real arithmetic expands each
// machine's rows at the barrier.
func simsqlGram(cl *sim.Cluster, cfg Config, machineData []*workload.RegressionData) (gramAcc, error) {
	machines := cl.NumMachines()
	cost := cl.Config().Cost
	g := newGram(cfg.P)
	scratch := make([]float64, cfg.P)
	cl.Advance(cost.MRJobLaunch)
	err := cl.RunPhaseFM("gram-groupby", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		d := machineData[machine]
		// Input scan of the per-dim relation plus the combiner loop over
		// N x P^2 generated rows.
		m.ChargeTuples(len(d.X) * cfg.P)
		m.ChargeSec(float64(len(d.X)) * float64(cfg.P) * float64(cfg.P) * cl.Scale() * cost.SQLCombineSec)
		// One combined partial per Gram entry ships to its reducer.
		m.SendModel((machine+1)%machines, float64(cfg.P*cfg.P*24))
		return nil
	}, func(machine int, m *sim.Meter) error {
		// Fold into the shared accumulator at the barrier, in machine
		// order, so the float summation order is worker-count-independent.
		g.add(machineData[machine], scratch)
		return nil
	})
	if err != nil {
		return gramAcc{}, fmt.Errorf("lasso simsql: gram: %w", err)
	}
	return g, nil
}
