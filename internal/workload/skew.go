package workload

import (
	"math"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

// This file holds the skew-aware generator family behind
// internal/datagen: the same planted structures as the historical
// generators above, but with the shape knobs the paper's fixed corpora
// never exposed — word-frequency and topic-prior Zipf exponents,
// doc-length distributions, GMM covariance conditioning and mixture
// imbalance, and AR(1)-correlated regression designs. The historical
// functions are untouched: every default run stays byte-identical.

// ZipfWeights returns the unnormalized Zipf rank profile w_r = (r+1)^-s
// over v ranks — the word-frequency law both corpus generators sample
// from (GenCorpus hardcodes s = 1.05).
func ZipfWeights(v int, s float64) []float64 {
	weights := make([]float64, v)
	for r := 0; r < v; r++ {
		weights[r] = 1 / math.Pow(float64(r+1), s)
	}
	return weights
}

// Doc-length distribution names for SkewedCorpusConfig.LenDist.
const (
	LenUniform   = "uniform" // the historical ±50% around the mean
	LenFixed     = "fixed"
	LenPoisson   = "poisson"
	LenLognormal = "lognormal"
)

// SampleDocLen draws one document length (minimum 2 words) from the named
// distribution. For lognormal, sigma is the log-scale shape and the
// underlying location is chosen so the distribution's mean is `mean`
// (mu = ln(mean) - sigma^2/2).
func SampleDocLen(rng *randgen.RNG, dist string, mean, sigma float64) int {
	var length int
	switch dist {
	case LenFixed:
		length = int(math.Round(mean))
	case LenPoisson:
		length = rng.Poisson(mean)
	case LenLognormal:
		mu := math.Log(mean) - sigma*sigma/2
		length = int(math.Exp(rng.Normal(mu, sigma)))
	default: // LenUniform
		m := int(math.Round(mean))
		length = m/2 + rng.Intn(m+1)
	}
	if length < 2 {
		length = 2
	}
	return length
}

// SkewedCorpusConfig parameterizes GenCorpusSkewed. Zero values mean the
// historical shape: ZipfS 1.05, uniform topic priors, uniform ±50%
// lengths, 10% background words.
type SkewedCorpusConfig struct {
	Docs   int
	Vocab  int
	AvgLen int
	Topics int
	// ZipfS is the word-frequency Zipf exponent (historical: 1.05).
	ZipfS float64
	// TopicSkew is a Zipf exponent over the planted topic priors: 0 keeps
	// the historical uniform topic draw; larger values concentrate
	// documents onto the first few topics (the heavy-tailed regime where
	// GAS ghost replication and mhalias acceptance behavior diverge).
	TopicSkew float64
	// Background is the shared-vocabulary word fraction (historical: 0.1).
	Background float64
	// LenDist / LenSigma select the doc-length law (see SampleDocLen).
	LenDist  string
	LenSigma float64
}

func (c SkewedCorpusConfig) withDefaults() SkewedCorpusConfig {
	if c.AvgLen == 0 {
		c.AvgLen = 210
	}
	if c.Topics <= 0 {
		c.Topics = 1
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.05
	}
	if c.Background == 0 {
		c.Background = 0.1
	}
	if c.LenDist == "" {
		c.LenDist = LenUniform
	}
	if c.LenSigma == 0 {
		c.LenSigma = 0.5
	}
	return c
}

// GenCorpusSkewed generates documents like GenCorpus — per-topic
// Zipf-permuted word distributions with shared background words — but
// with the shape knobs above. Word draws always go through the Walker
// alias table (this is a new stream; there is no historical CDF path to
// preserve), so generation is O(1) per word. It materializes
// OpenCorpusSkewed's stream.
func GenCorpusSkewed(rng *randgen.RNG, cfg SkewedCorpusConfig) [][]int {
	next := OpenCorpusSkewed(rng, cfg)
	docs := make([][]int, cfg.Docs)
	for d := range docs {
		docs[d] = next()
	}
	return docs
}

// SkewedGMMConfig parameterizes GenGMMSkewed. Zero values mean the
// historical shape: separation 8, spherical unit covariance, uniform
// mixture weights.
type SkewedGMMConfig struct {
	N int
	D int
	K int
	// Separation is the distance scale between planted means (default 8).
	Separation float64
	// CovCondition is the per-cluster covariance condition number: the
	// ratio of the largest to the smallest axis variance (1 = spherical).
	// Axis standard deviations are log-spaced between cond^-1/4 and
	// cond^+1/4, rotated by one dimension per cluster so no single axis is
	// stretched for every cluster.
	CovCondition float64
	// Imbalance is a Zipf exponent over the mixture weights: 0 keeps the
	// uniform mixture; larger values starve the tail clusters.
	Imbalance float64
}

// PlantedMixture holds the shared planted structure of a skewed mixture;
// distributed generators build it once from a shared seed so every
// machine samples the same mixture.
type PlantedMixture struct {
	Mu     []linalg.Vec
	Sigma  []linalg.Vec // per-cluster per-axis standard deviations
	Weight []float64    // normalized mixture weights
}

// NewPlantedMixture draws the planted means and derives the axis scales
// and mixture weights from the config.
func NewPlantedMixture(rng *randgen.RNG, cfg SkewedGMMConfig) *PlantedMixture {
	if cfg.Separation == 0 {
		cfg.Separation = 8
	}
	if cfg.CovCondition == 0 {
		cfg.CovCondition = 1
	}
	m := &PlantedMixture{Mu: PlantedMeans(rng, cfg.K, cfg.D, cfg.Separation)}
	// Axis scales: sigma ranges over [cond^-1/4, cond^+1/4] so the
	// variance ratio is exactly CovCondition; each cluster rotates the
	// assignment by one dimension.
	m.Sigma = make([]linalg.Vec, cfg.K)
	logSpan := math.Log(cfg.CovCondition) / 4
	for k := range m.Sigma {
		s := make(linalg.Vec, cfg.D)
		for j := range s {
			frac := 0.5
			if cfg.D > 1 {
				frac = float64((j+k)%cfg.D) / float64(cfg.D-1)
			}
			s[j] = math.Exp(logSpan * (2*frac - 1))
		}
		m.Sigma[k] = s
	}
	m.Weight = ZipfWeights(cfg.K, cfg.Imbalance)
	var total float64
	for _, w := range m.Weight {
		total += w
	}
	for k := range m.Weight {
		m.Weight[k] /= total
	}
	return m
}

// GenGMMSkewedAt samples n points from the planted mixture: the first n
// points of OpenGMMSkewedAt's stream, with their planted labels.
func GenGMMSkewedAt(rng *randgen.RNG, m *PlantedMixture, n int) *GMMData {
	return collectGMM(openSkewedGMM(rng, m), m.Mu, n)
}

// GenGMMSkewed plants a skewed mixture and samples N points from it.
func GenGMMSkewed(rng *randgen.RNG, cfg SkewedGMMConfig) *GMMData {
	return GenGMMSkewedAt(rng, NewPlantedMixture(rng, cfg), cfg.N)
}

// GenRegressionCorrelated draws n observations from a fixed coefficient
// vector with AR(1)-correlated regressors: corr(x_i, x_j) = rho^|i-j|
// with unit marginal variance, so rho 0 reproduces the independent
// design's distribution (though not its byte stream — the historical
// GenRegressionWithBeta stays the default path).
func GenRegressionCorrelated(rng *randgen.RNG, beta linalg.Vec, n int, noise, rho float64) *RegressionData {
	if noise == 0 {
		noise = 1
	}
	out := &RegressionData{TrueBeta: beta, Y: make(linalg.Vec, n)}
	p := len(beta)
	innov := math.Sqrt(1 - rho*rho)
	for i := 0; i < n; i++ {
		x := make(linalg.Vec, p)
		for j := range x {
			if j == 0 {
				x[j] = rng.Norm()
			} else {
				x[j] = rho*x[j-1] + innov*rng.Norm()
			}
		}
		out.X = append(out.X, x)
		out.Y[i] = x.Dot(beta) + rng.Normal(0, noise)
	}
	return out
}
