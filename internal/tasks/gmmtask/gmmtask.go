// Package gmmtask implements the paper's Section 5 benchmark task — the
// Gaussian mixture model Gibbs sampler — on all five platform engines,
// in both the "initial" per-point formulations and the super-vertex
// formulations of Figure 1, plus the parameter-server port of fig-ps.
package gmmtask

import (
	"mlbench/internal/linalg"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// Config parameterizes one GMM benchmark run. Counts are at paper scale;
// the cluster's Scale factor determines how many real points exist.
type Config struct {
	K                int // mixture components (paper: 10)
	D                int // dimensions (paper: 10 or 100)
	PointsPerMachine int // paper: 10M (10-d) or 1M (100-d)
	Iterations       int
	SuperVertex      bool
	SVPerMachine     int // super vertices per machine (default 80)
	Seed             uint64
	// DisableCombiner turns off Giraph's message combiner (the Section
	// 5.4 ablation: "Giraph's combiner functionality is used to reduce
	// communication and increase load balancing during aggregation").
	DisableCombiner bool
	// Dataset names a datagen scenario reshaping the point cloud
	// (covariance conditioning, mixture imbalance, partition imbalance);
	// empty is the historical paper-shape generator, byte-identical to
	// before the knob existed. Validated upstream (RunSpec.Validate /
	// datagen.ParseScenario).
	Dataset string
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
		c.Seed = 17
	}
	return c
}

// machineSources streams the first machines' points (see task.Data).
// All platforms share the same data for a given cluster seed, so learned
// models are comparable across engines.
func machineSources(cl *sim.Cluster, cfg Config, machines int) []*sim.Source[linalg.Vec] {
	data := task.NewData(cl, cfg.Seed, cfg.Dataset, cfg.PointsPerMachine)
	srcs := make([]*sim.Source[linalg.Vec], machines)
	for mc := range srcs {
		srcs[mc] = data.Mixture(mc, cfg.K, cfg.D)
	}
	return srcs
}

// machineSource streams one machine's points.
func machineSource(cl *sim.Cluster, cfg Config, machine int) *sim.Source[linalg.Vec] {
	return task.NewData(cl, cfg.Seed, cfg.Dataset, cfg.PointsPerMachine).Mixture(machine, cfg.K, cfg.D)
}

// momentsOfSources computes the mean and per-dimension variance of the
// concatenated machine streams in two passes, accumulating one point at
// a time in machine order — the same floating-point order as the
// historical single-slice momentsOf over all machines' points.
func momentsOfSources(srcs []*sim.Source[linalg.Vec], d int) (linalg.Vec, linalg.Vec) {
	mean := linalg.NewVec(d)
	variance := linalg.NewVec(d)
	n := 0
	for _, src := range srcs {
		n += src.Len()
		src.Each(func(x linalg.Vec) { x.AddTo(mean) })
	}
	mean.ScaleInPlace(1 / float64(n))
	for _, src := range srcs {
		src.Each(func(x linalg.Vec) {
			for i := range x {
				df := x[i] - mean[i]
				variance[i] += df * df
			}
		})
	}
	variance.ScaleInPlace(1 / float64(n))
	return mean, variance
}

// pointBytes is the simulated in-memory size of one data point under a
// language runtime: payload plus per-object representation overhead
// (Python tuples of floats are far heavier than C++ structs).
func pointBytes(p sim.Profile, d int) int64 {
	switch p.Name {
	case "python":
		return int64(8*d) + 112
	case "java":
		return int64(8*d) + 48
	default:
		return int64(8*d) + 16
	}
}

// statBytes is the wire size of one per-cluster sufficient-statistics
// record (count, sum vector, raw second moment).
func statBytes(d int) int64 { return int64(8 * (1 + d + d*d)) }

// modelMsgBytes is the wire size of one cluster's parameters
// (mu, Sigma, pi) — the paper's broadcast triple.
func modelMsgBytes(d int) int64 { return int64(8 * (1 + d + d*d)) }
