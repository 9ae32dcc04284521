// Package lassotask implements the paper's Section 6 benchmark task —
// the Bayesian Lasso Gibbs sampler — on all five platform engines. The
// interesting structure is in the initialization: the Gram matrix X^T X
// must be computed over the whole data set, which takes hours on SimSQL
// (an aggregate-GROUP BY with one group per matrix entry) and on Spark
// (Python-side emission of keyed partial products), versus under a
// minute on GraphLab and Giraph (local C++/Java matrix math plus one
// tree aggregation).
package lassotask

import (
	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/workload"
)

// Config parameterizes one Bayesian Lasso run at paper scale.
type Config struct {
	P                int     // regressors (paper: 1000)
	PointsPerMachine int     // paper: 100,000
	Iterations       int     //
	Lambda           float64 // Lasso regularization
	SuperVertex      bool    // Giraph: plain (fails) vs super-vertex
	Seed             uint64
	// Dataset names a datagen scenario reshaping the design matrix
	// (AR(1) regressor correlation, partition imbalance); empty is the
	// historical paper-shape generator, byte-identical to before the knob
	// existed. Validated upstream (RunSpec.Validate /
	// datagen.ParseScenario).
	Dataset string
}

func (c Config) withDefaults() Config {
	if c.P == 0 {
		c.P = 1000
	}
	if c.PointsPerMachine == 0 {
		c.PointsPerMachine = 100_000
	}
	if c.Iterations == 0 {
		c.Iterations = 3
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.Seed == 0 {
		c.Seed = 23
	}
	return c
}

// trueBeta returns the planted coefficient vector shared by all machines.
func trueBeta(cfg Config) linalg.Vec {
	rng := randgen.New(cfg.Seed ^ 0xbe7a)
	return workload.SparseBeta(rng, cfg.P, cfg.P/20+1)
}

// genMachineData generates one machine's observations (see task.Data).
func genMachineData(cl *sim.Cluster, cfg Config, machine int) *workload.RegressionData {
	return task.NewData(cl, cfg.Seed, cfg.Dataset, cfg.PointsPerMachine).Regression(machine, trueBeta(cfg))
}

// gramPartial is one machine's dense contribution to the initialization
// statistics.
type gramPartial struct {
	xtx    *linalg.Mat
	xty    linalg.Vec
	colSum linalg.Vec
	ySum   float64
	n      float64
}

// localGram computes a machine's contributions to X^T X, X^T y, the
// column sums of X and the response moments (real math; callers charge
// the virtual cost).
func localGram(d *workload.RegressionData, p int) gramPartial {
	g := gramPartial{xtx: linalg.NewMat(p, p), xty: linalg.NewVec(p), colSum: linalg.NewVec(p)}
	g.xtx.AddGram(d.X)
	for i, x := range d.X {
		for j := range x {
			g.xty[j] += x[j] * d.Y[i]
			g.colSum[j] += x[j]
		}
		g.ySum += d.Y[i]
	}
	g.n = float64(len(d.X))
	return g
}

func (g *gramPartial) merge(o gramPartial) {
	g.xtx.AddInPlace(o.xtx)
	o.xty.AddTo(g.xty)
	o.colSum.AddTo(g.colSum)
	g.ySum += o.ySum
	g.n += o.n
}

// finish scales the partials to paper scale and centers X^T y:
// X^T (y - ybar) = X^T y - ybar * colsums(X).
func (g *gramPartial) finish(scale float64) (xtx *linalg.Mat, xty linalg.Vec, yBar float64, n float64) {
	yBar = g.ySum / g.n
	xty = g.xty.Clone()
	for j := range xty {
		xty[j] -= yBar * g.colSum[j]
	}
	g.xtx.ScaleInPlace(scale)
	xty.ScaleInPlace(scale)
	return g.xtx, xty, yBar, g.n * scale
}

// sseOf computes the residual sum of squares against the centered
// response.
func sseOf(d *workload.RegressionData, beta linalg.Vec, yBar float64) float64 {
	var s float64
	for i, x := range d.X {
		r := (d.Y[i] - yBar) - x.Dot(beta)
		s += r * r
	}
	return s
}

// chainPoint is the per-iteration quality statistic shared by all four
// Lasso implementations: the recovery error of the current coefficient
// draw against the planted truth. With matched data seeds every platform
// regresses the same data, so the chains are directly comparable
// (diagnostic, uncharged).
func chainPoint(cfg Config, beta linalg.Vec) float64 {
	diff := beta.Sub(trueBeta(cfg))
	return diff.Norm2() / float64(len(beta))
}

// recordQuality stores the recovery error of the learned coefficients
// against the planted truth (diagnostic, uncharged).
func recordQuality(cfg Config, beta linalg.Vec, res *task.Result) {
	res.SetMetric("beta_err", chainPoint(cfg, beta))
}
