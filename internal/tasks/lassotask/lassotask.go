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

// moments is a sender's contribution to X^T y, the column sums of X and
// the response moments.
type moments struct {
	xty    linalg.Vec
	colSum linalg.Vec
	ySum   float64
	n      float64
}

// localMoments computes a sender's moments, summed from zero (real
// math; callers charge the virtual cost).
func localMoments(d *workload.RegressionData, p int) moments {
	mo := moments{xty: linalg.NewVec(p), colSum: linalg.NewVec(p)}
	for i, x := range d.X {
		for j := range x {
			mo.xty[j] += x[j] * d.Y[i]
			mo.colSum[j] += x[j]
		}
		mo.ySum += d.Y[i]
	}
	mo.n = float64(len(d.X))
	return mo
}

func (a *moments) merge(b moments) {
	b.xty.AddTo(a.xty)
	b.colSum.AddTo(a.colSum)
	a.ySum += b.ySum
	a.n += b.n
}

// gramAcc accumulates the initialization statistics. A sender's Gram
// contribution is its rows, not a dense P×P partial: the receiver
// expands each sender's lower row j into a scratch row summed from zero,
// exactly as the sender's dense partial would have summed it, and adds
// that row to its own. xtx holds only the lower triangle until finish
// mirrors it (DESIGN.md §6, "Lasso Gram fold").
type gramAcc struct {
	xtx *linalg.Mat
	moments
}

// newGram returns an empty accumulator.
func newGram(p int) gramAcc {
	return gramAcc{xtx: linalg.NewMat(p, p), moments: moments{xty: linalg.NewVec(p), colSum: linalg.NewVec(p)}}
}

// add folds one sender's rows and moments into g; scratch holds at
// least P entries.
func (g *gramAcc) add(d *workload.RegressionData, scratch []float64) {
	for j := 0; j < g.xtx.Rows; j++ {
		foldGramRow(g.xtx.Row(j)[:j+1], d.X, j, scratch)
	}
	g.merge(localMoments(d, g.xtx.Rows))
}

// foldGramRow adds the sender rows xs's lower row j, len(dst) = j+1
// entries, to dst through scratch.
func foldGramRow(dst []float64, xs []linalg.Vec, j int, scratch []float64) {
	s := scratch[:len(dst)]
	clear(s)
	linalg.GramRow(s, xs, j)
	for i, v := range s {
		dst[i] += v
	}
}

// finish mirrors the folded lower triangle, scales the statistics to
// paper scale and centers X^T y:
// X^T (y - ybar) = X^T y - ybar * colsums(X).
func (g *gramAcc) finish(scale float64) (xtx *linalg.Mat, xty linalg.Vec, yBar float64, n float64) {
	yBar = g.ySum / g.n
	xty = g.xty.Clone()
	for j := range xty {
		xty[j] -= yBar * g.colSum[j]
	}
	g.xtx.MirrorLower().ScaleInPlace(scale)
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
