package datagen

import (
	"mlbench/internal/randgen"
	"mlbench/internal/workload"
)

// This file maps a spec's sections onto the workload generators, one
// mapping per data kind. Generate takes the dimensions from the spec;
// the task packages' data wiring (internal/tasks/task) keeps the task's
// paper dimensions and takes only the shape from a scenario. A nil
// section maps to the paper shape.

// Shape sets the corpus section's shape knobs on cfg, which carries the
// dimensions. A nil section returns cfg unchanged: the paper corpus. A
// shaped corpus always draws its words through the alias table, whatever
// the task's sampler tier.
func (c *CorpusSpec) Shape(cfg workload.CorpusConfig) workload.CorpusConfig {
	if c == nil {
		return cfg
	}
	cfg.Sampler = randgen.TierAlias
	cfg.ZipfS, cfg.TopicSkew, cfg.Background = c.ZipfS, c.TopicSkew, c.Background
	cfg.LenDist, cfg.LenSigma = c.DocLen.Dist, c.DocLen.Sigma
	return cfg
}

// Plant draws a k-component, dim-dimensional planted mixture from rng.
// A nil section plants the paper mixture: means at separation 8, unit
// scales, components drawn by rng.Intn(k). A section always plants
// weights, so its imbalance 0 is not the paper stream.
func (g *GMMSpec) Plant(rng *randgen.RNG, k, dim int) *workload.PlantedMixture {
	if g == nil {
		return &workload.PlantedMixture{Mu: workload.PlantedMeans(rng, k, dim, 8)}
	}
	return workload.NewPlantedMixture(rng, workload.GMMConfig{
		D: dim, K: k,
		Separation: g.Separation, CovCondition: g.CovCondition, Imbalance: g.Imbalance,
	})
}

// Shape returns the regression section's design. A nil section is the
// paper design.
func (r *RegressionSpec) Shape() workload.RegressionConfig {
	if r == nil {
		return workload.RegressionConfig{}
	}
	return workload.RegressionConfig{Noise: r.Noise, Rho: r.Correlation}
}
