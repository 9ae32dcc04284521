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

	data := sparkData(ctx, cl, cfg)
	g, err := sparkGram(data, cfg)
	if err != nil {
		return res, err
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

// sparkData builds the cached data RDD: one partition per core, each a
// slice of its machine's observations.
func sparkData(ctx *dataflow.Context, cl *sim.Cluster, cfg Config) *dataflow.RDD[obs] {
	machines := cl.NumMachines()
	parts := machines * cl.Config().Cores
	machineData := make([]*workload.RegressionData, machines)
	for mc := 0; mc < machines; mc++ {
		machineData[mc] = genMachineData(cl, cfg, mc)
	}
	obsBytes := int64(8*cfg.P) + 144
	return dataflow.Generate(ctx, parts, func(obs) int64 { return obsBytes },
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
}

// gramVal is a value of the Spark Gram job. A map task emits, per Gram
// row j, its partition's rows (src), which the reduce expands one row at
// a time; the moment keys (-1 X^T y, -2 column sums, -3 y sum and count)
// carry their dense vectors in sum from the start. The first reduce into
// a key allocates the key's accumulator (src nil), which folds every
// later value in place, so no map output is ever written.
type gramVal struct {
	j   int                      // Gram row, or a moment key (< 0)
	src *workload.RegressionData // the partition's rows; nil in an accumulator
	sum []float64                // row j's [0, j] part, or a moment vector
}

// addTo adds v's dense value to dst: sum, or its rows' lower row j
// expanded through scratch.
func (v gramVal) addTo(dst, scratch []float64) {
	if v.sum == nil {
		foldGramRow(dst, v.src.X, v.j, scratch)
		return
	}
	for i, x := range v.sum {
		dst[i] += x
	}
}

// fold returns a + b.
func (a gramVal) fold(b gramVal, scratch []float64) gramVal {
	if a.src != nil {
		n := a.j + 1
		if a.j < 0 {
			n = len(a.sum)
		}
		acc := gramVal{j: a.j, sum: make([]float64, n)}
		a.addTo(acc.sum, scratch)
		a = acc
	}
	b.addTo(a.sum, scratch)
	return a
}

// sparkGram runs the Gram matrix and X^T y job: a flatMap of keyed
// row-products + reduceByKey. The per-point Python cost is P keyed
// emissions plus P vector operations; the real arithmetic is each
// partition's rows expanded one Gram row at a time by the reduce.
func sparkGram(data *dataflow.RDD[obs], cfg Config) (gramAcc, error) {
	type rowPair = dataflow.Pair[int, gramVal]
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
		mo := localMoments(d, cfg.P)
		out := make([]rowPair, 0, cfg.P+3)
		for j := 0; j < cfg.P; j++ {
			out = append(out, rowPair{K: j, V: gramVal{j: j, src: d}})
		}
		out = append(out, rowPair{K: -1, V: gramVal{j: -1, src: d, sum: mo.xty}})
		out = append(out, rowPair{K: -2, V: gramVal{j: -2, src: d, sum: mo.colSum}})
		out = append(out, rowPair{K: -3, V: gramVal{j: -3, src: d, sum: []float64{mo.ySum, mo.n}}})
		return out
	})
	// Every map output holds each key once, so the reduce runs only in
	// the shuffle's barrier merge, one call at a time, and the driver
	// after it: one scratch row serves them all.
	scratch := make([]float64, cfg.P)
	combined := dataflow.ReduceByKey(gramRDD, func(m *sim.Meter, a, b gramVal) gramVal {
		// A Gram row is charged as the P-vector the paper's job adds,
		// whatever part of it is stored.
		n := cfg.P
		if a.j < 0 {
			n = len(a.sum)
		}
		m.ChargeLinalgAbs(1, float64(2*n), cfg.P)
		return a.fold(b, scratch)
	}).AsModel().SetName("gram")
	rows, err := dataflow.CollectPairs(combined)
	if err != nil {
		return gramAcc{}, fmt.Errorf("lasso spark: gram: %w", err)
	}
	// The driver takes each key's value and finish mirrors the matrix.
	g := newGram(cfg.P)
	for _, r := range rows {
		switch {
		case r.K >= 0:
			r.V.addTo(g.xtx.Row(r.K)[:r.K+1], scratch)
		case r.K == -1:
			r.V.addTo(g.xty, scratch)
		case r.K == -2:
			r.V.addTo(g.colSum, scratch)
		default:
			g.ySum, g.n = r.V.sum[0], r.V.sum[1]
		}
	}
	return g, nil
}
