package lassotask

import (
	"fmt"

	"mlbench/internal/dataflow"
	"mlbench/internal/models/lasso"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/workload"
)

// obs is one observation in the Spark data RDD.
type obs struct {
	id int
	x  []float64
	y  float64
}

// RunSpark implements the paper's Section 6.1 Spark Bayesian Lasso: a
// cached data RDD; centering, Gram matrix (XX) and XY jobs at
// initialization (the flatMap + reduceByKey of keyed partial products —
// the hour-plus Python initialization of Figure 2); and one distributed
// residual job plus driver-side conjugate draws per iteration.
func RunSpark(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	profile := sim.ProfilePython
	ctx := dataflow.NewContext(cl, profile)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()

	parts := machines * cl.Config().Cores
	machineData := make([]*workload.RegressionData, machines)
	for mc := 0; mc < machines; mc++ {
		machineData[mc] = genMachineData(cl, cfg, mc)
	}
	obsBytes := int64(8*cfg.P) + 144
	data := dataflow.Generate(ctx, parts, func(obs) int64 { return obsBytes },
		func(p int, r *randgen.RNG) []obs {
			mc := p % machines
			d := machineData[mc]
			slot := p / machines
			cores := cl.Config().Cores
			lo, hi := slot*len(d.X)/cores, (slot+1)*len(d.X)/cores
			out := make([]obs, 0, hi-lo)
			for i := lo; i < hi; i++ {
				out = append(out, obs{id: i, x: d.X[i], y: d.Y[i]})
			}
			return out
		}).SetName("data").Cache()

	// Initialization: y average (two jobs), then the Gram matrix and XY
	// via flatMap of keyed row-products + reduceByKey. The per-point
	// Python cost is P keyed emissions plus P vector operations; the real
	// arithmetic is done densely per partition.
	type rowPair = dataflow.Pair[int, []float64]
	rowSizer := func(rowPair) int64 { return int64(8*cfg.P) + 32 }
	gramRDD := dataflow.MapPartitions(data, rowSizer, func(m *sim.Meter, part []obs) []rowPair {
		// Charge the paper implementation's per-point costs: P keyed
		// emissions (computePairSum) and P vector ops.
		m.ChargeTuplesAbs(float64(len(part)) * float64(cfg.P) * m.Scale())
		m.ChargeLinalg(len(part)*cfg.P, float64(2*cfg.P), cfg.P)
		d := &workload.RegressionData{}
		for _, o := range part {
			d.X = append(d.X, o.x)
			d.Y = append(d.Y, o.y)
		}
		g := localGram(d, cfg.P)
		out := make([]rowPair, 0, cfg.P+3)
		for j := 0; j < cfg.P; j++ {
			out = append(out, rowPair{K: j, V: g.xtx.Row(j)})
		}
		out = append(out, rowPair{K: -1, V: g.xty})
		out = append(out, rowPair{K: -2, V: g.colSum})
		out = append(out, rowPair{K: -3, V: []float64{g.ySum, g.n}})
		return out
	})
	combined := dataflow.ReduceByKey(gramRDD, func(m *sim.Meter, a, b []float64) []float64 {
		m.ChargeLinalgAbs(1, float64(2*len(a)), cfg.P)
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	}).AsModel().SetName("gram")
	rows, err := dataflow.CollectPairs(combined)
	if err != nil {
		return res, fmt.Errorf("lasso spark: gram: %w", err)
	}
	g := localGramZero(cfg.P)
	for _, r := range rows {
		switch {
		case r.K >= 0:
			copy(g.xtx.Row(r.K), r.V)
		case r.K == -1:
			copy(g.xty, r.V)
		case r.K == -2:
			copy(g.colSum, r.V)
		default:
			g.ySum, g.n = r.V[0], r.V[1]
		}
	}
	xtx, xty, yBar, n := g.finish(cl.Scale())
	res.InitSec = sw.Lap()

	// Gibbs iterations: one distributed residual job, driver-side draws.
	rng := randgen.New(cfg.Seed ^ 0x57a2)
	h := lasso.Hyper{Lambda: cfg.Lambda, P: cfg.P}
	state := lasso.Init(cfg.P)
	for iter := 0; iter < cfg.Iterations; iter++ {
		// Draw the auxiliaries and the new beta on the driver (the paper:
		// "most of the code of the main loop ... is run locally").
		err = cl.RunDriver("lasso-tau-beta", func(m *sim.Meter) error {
			m.SetProfile(profile)
			m.ChargeLinalgAbs(cfg.P, 8, 1)          // inverse-Gaussian draws
			m.ChargeBulkAbs(lasso.BetaFlops(cfg.P)) // NumPy Cholesky + solve
			lasso.SampleInvTau2(rng, h, state)
			return lasso.SampleBeta(rng, state, xtx, xty)
		})
		if err != nil {
			return res, fmt.Errorf("lasso spark iter %d: draws: %w", iter, err)
		}
		// One MapReduce job computes sum (y - beta.x)^2 with the new beta.
		if err := ctx.Broadcast(int64(8*cfg.P), "beta"); err != nil {
			return res, err
		}
		sse, err := dataflow.Aggregate(data,
			func() float64 { return 0 },
			func(m *sim.Meter, acc float64, o obs) float64 {
				m.ChargeLinalg(1, float64(2*cfg.P), cfg.P)
				r := (o.y - yBar) - dot(o.x, state.Beta)
				return acc + r*r
			},
			func(m *sim.Meter, a, b float64) float64 { return a + b },
		)
		if err != nil {
			return res, fmt.Errorf("lasso spark iter %d: %w", iter, err)
		}
		sse *= cl.Scale()
		err = cl.RunDriver("lasso-sigma", func(m *sim.Meter) error {
			m.SetProfile(profile)
			lasso.SampleSigma2(rng, state, n, sse)
			return nil
		})
		if err != nil {
			return res, err
		}
		ctx.ReleaseBroadcast(int64(8 * cfg.P))
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(chainPoint(cfg, state.Beta))
	}
	recordQuality(cfg, state.Beta, res)
	return res, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// localGramZero returns an empty accumulator.
func localGramZero(p int) gramPartial {
	d := &workload.RegressionData{}
	return localGram(d, p)
}
