// Package imputetask implements the paper's Section 9 benchmark task —
// Gaussian missing-value imputation — on all four platform engines. The
// model is the GMM of Section 5 with one extra Gibbs step that redraws
// each point's censored coordinates from its cluster's conditional
// normal. The benchmark-relevant twist is that the data set itself
// changes every iteration, which costs Spark its cache() advantage
// (Figure 5's 3x slowdown over the GMM) while barely moving the other
// platforms.
package imputetask

import (
	"math"
	"sync/atomic"

	"mlbench/internal/linalg"
	"mlbench/internal/models/gmm"
	"mlbench/internal/models/impute"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/workload"
)

// Config parameterizes one imputation run at paper scale (the paper uses
// the ten-dimensional GMM data with ~50% of values censored).
type Config struct {
	K                int
	D                int
	PointsPerMachine int
	Iterations       int
	SVPerMachine     int
	Seed             uint64
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 10
	}
	if c.D == 0 {
		c.D = 10
	}
	if c.PointsPerMachine == 0 {
		c.PointsPerMachine = 10_000_000
	}
	if c.Iterations == 0 {
		c.Iterations = 3
	}
	if c.SVPerMachine == 0 {
		c.SVPerMachine = 80
	}
	if c.Seed == 0 {
		c.Seed = 53
	}
	return c
}

// point is one observation: current values (censored slots hold imputed
// draws), the censoring mask, the true values (for the quality
// diagnostic) and the current cluster assignment.
type point struct {
	x       linalg.Vec
	missing []bool
	truth   linalg.Vec
	c       int
}

// genMachinePoints deterministically generates one machine's censored
// points.
func genMachinePoints(cl *sim.Cluster, cfg Config, machine int) []*point {
	n := task.RealCount(cl, cfg.PointsPerMachine)
	root := randgen.New(cfg.Seed ^ cl.Config().Seed)
	mu := workload.PlantedMeans(root, cfg.K, cfg.D, 8) // shared planted mixture
	rng := root.Split(uint64(machine))
	data := workload.GenGMMAt(rng, mu, n)
	censored, missing := workload.Censor(rng, data.Points)
	out := make([]*point, n)
	for i := range out {
		out[i] = &point{x: censored[i], missing: missing[i], truth: data.Points[i], c: rng.Intn(cfg.K)}
	}
	return out
}

// hyperFrom computes the empirical hyperparameters over observed values.
func hyperFrom(pts []*point, cfg Config) gmm.Hyper {
	mean := linalg.NewVec(cfg.D)
	variance := linalg.NewVec(cfg.D)
	count := linalg.NewVec(cfg.D)
	for _, p := range pts {
		for d, v := range p.x {
			if !p.missing[d] {
				mean[d] += v
				variance[d] += v * v
				count[d]++
			}
		}
	}
	for d := range mean {
		if count[d] == 0 {
			count[d] = 1
		}
		mean[d] /= count[d]
		variance[d] = variance[d]/count[d] - mean[d]*mean[d]
		if variance[d] <= 0 {
			variance[d] = 1
		}
	}
	return gmm.HyperFromMoments(cfg.K, mean, variance)
}

// model is the sampler state an imputation pass reads: the mixture
// parameters and the imputation plan built from them. update replaces
// both together, so a pass that reads plan when it runs (Spark's lineage
// recompute of an earlier iteration's closure included) sees the
// parameters gmm.UpdateParams last drew.
type model struct {
	params *gmm.Params
	plan   *impute.Plan
	failed atomic.Int64 // imputation updates that returned an error
}

// planFor builds the imputation plan of p. Tests replace it to force
// failing updates.
var planFor = func(p *gmm.Params) (*impute.Plan, error) {
	return impute.NewPlan(p.Pi, p.Mu, p.Sigma)
}

// newModel draws the initial parameters and builds their plan.
func newModel(rng *randgen.RNG, h gmm.Hyper) (*model, error) {
	params, err := gmm.Init(rng, h)
	if err != nil {
		return nil, err
	}
	plan, err := planFor(params)
	if err != nil {
		return nil, err
	}
	return &model{params: params, plan: plan}, nil
}

// update draws the next parameters from the gathered statistics and
// rebuilds the plan from them.
func (m *model) update(rng *randgen.RNG, h gmm.Hyper, s *gmm.Stats) error {
	if err := gmm.UpdateParams(rng, h, m.params, s); err != nil {
		return err
	}
	plan, err := planFor(m.params)
	if err != nil {
		return err
	}
	m.plan = plan
	return nil
}

// imputePoint performs the blocked Gibbs update of one point: the
// cluster assignment is drawn from the observed coordinates' marginal
// (so imputed values cannot reinforce a wrong cluster), then the
// censored coordinates are redrawn from the conditional normal. A failed
// update (a covariance block that is not positive definite) leaves the
// point's values as they were and is counted.
func (m *model) imputePoint(rng *randgen.RNG, p *point) {
	if err := m.plan.Impute(rng, p.x, p.missing, &p.c); err != nil {
		m.failed.Add(1)
	}
}

// noteFailures reports the run's failed imputation updates, if any.
func (m *model) noteFailures(res *task.Result) {
	if n := m.failed.Load(); n > 0 {
		res.Note("%d imputation updates failed on a covariance block that is not positive definite; those points kept their previous values", n)
	}
}

// pointWorkFlops is the per-point cost of one full iteration step:
// conditional-normal imputation plus membership sampling plus the
// scatter contribution.
func pointWorkFlops(k, d int) float64 {
	return impute.Flops(d) + gmm.MembershipFlops(k, d) + float64(d*d)
}

// recordQuality stores the RMSE of imputed values against the hidden
// truth on machine-0 points, and the mean-imputation baseline RMSE for
// reference. Only partially observed points are scored: with the paper's
// Beta(1, 1) censoring a quarter of the points lose every coordinate,
// and no method can locate those beyond the mixture marginal.
func recordQuality(pts []*point, res *task.Result) {
	var se, base float64
	var n float64
	for _, p := range pts {
		anyObserved := false
		for _, miss := range p.missing {
			if !miss {
				anyObserved = true
				break
			}
		}
		if !anyObserved {
			continue
		}
		for d := range p.x {
			if p.missing[d] {
				diff := p.x[d] - p.truth[d]
				se += diff * diff
				base += p.truth[d] * p.truth[d] // mean-imputation predicts ~0
				n++
			}
		}
	}
	if n > 0 {
		res.SetMetric("impute_rmse", math.Sqrt(se/n))
		res.SetMetric("baseline_rmse", math.Sqrt(base/n))
	}
}

// statBytes and modelMsgBytes mirror the GMM task's payload sizes.
func statBytes(d int) int64     { return int64(8 * (1 + d + d*d)) }
func modelMsgBytes(d int) int64 { return int64(8 * (1 + d + d*d)) }
