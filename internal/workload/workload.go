// Package workload generates the synthetic data sets of the paper's
// evaluation: mixture-of-Gaussians point clouds (Sections 5 and 9),
// sparse linear regression data (Section 6), and a synthetic text corpus
// standing in for the paper's "two concatenated 20-newsgroups posts"
// documents (Sections 7 and 8) — the real 20-newsgroups corpus is not
// available offline, so the corpus generator preserves the properties the
// benchmark's cost behaviour depends on: a 10,000-word dictionary, ~210
// words per document, and a skewed (Zipf-like) word-frequency profile.
package workload

import (
	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

// GMMConfig parameterizes the clustering data generator.
type GMMConfig struct {
	N          int     // points
	D          int     // dimensions
	K          int     // planted clusters
	Separation float64 // distance scale between cluster centers
}

// GMMData holds a generated point cloud with its planted structure.
type GMMData struct {
	Points []linalg.Vec
	Labels []int
	Mu     []linalg.Vec
}

// GenGMM plants K unit-covariance Gaussians with well-separated means and
// samples N points from the uniform mixture.
func GenGMM(rng *randgen.RNG, cfg GMMConfig) *GMMData {
	if cfg.Separation == 0 {
		cfg.Separation = 8
	}
	return GenGMMAt(rng, PlantedMeans(rng, cfg.K, cfg.D, cfg.Separation), cfg.N)
}

// PlantedMeans draws K cluster means with the given separation scale.
// Distributed generators call this once with a shared seed so every
// machine's data comes from the same mixture.
func PlantedMeans(rng *randgen.RNG, k, d int, separation float64) []linalg.Vec {
	if separation == 0 {
		separation = 8
	}
	out := make([]linalg.Vec, k)
	for i := range out {
		mu := make(linalg.Vec, d)
		for j := range mu {
			mu[j] = rng.Normal(0, separation)
		}
		out[i] = mu
	}
	return out
}

// GenGMMAt samples n points from the uniform unit-covariance mixture with
// the given means: the first n points of OpenGMMAt's stream, with their
// planted labels.
func GenGMMAt(rng *randgen.RNG, mu []linalg.Vec, n int) *GMMData {
	return collectGMM(openUniformGMM(rng, mu), mu, n)
}

// collectGMM materializes the first n points of a labelled stream.
func collectGMM(next func() (int, linalg.Vec), mu []linalg.Vec, n int) *GMMData {
	out := &GMMData{Mu: mu}
	for i := 0; i < n; i++ {
		k, x := next()
		out.Points = append(out.Points, x)
		out.Labels = append(out.Labels, k)
	}
	return out
}

// RegressionConfig parameterizes the linear regression generator.
type RegressionConfig struct {
	N        int     // observations
	P        int     // regressors
	Sparsity int     // number of non-zero true coefficients
	Noise    float64 // residual standard deviation
}

// RegressionData holds a generated regression problem and its truth.
type RegressionData struct {
	X        []linalg.Vec
	Y        linalg.Vec
	TrueBeta linalg.Vec
}

// GenRegression draws standard-normal regressors and a sparse coefficient
// vector; responses are X beta + noise.
func GenRegression(rng *randgen.RNG, cfg RegressionConfig) *RegressionData {
	if cfg.Noise == 0 {
		cfg.Noise = 1
	}
	beta := linalg.NewVec(cfg.P)
	for s := 0; s < cfg.Sparsity && s < cfg.P; s++ {
		j := rng.Intn(cfg.P)
		for beta[j] != 0 {
			j = rng.Intn(cfg.P)
		}
		mag := 2 + 3*rng.Float64()
		if rng.Float64() < 0.5 {
			mag = -mag
		}
		beta[j] = mag
	}
	out := &RegressionData{TrueBeta: beta, Y: make(linalg.Vec, cfg.N)}
	for i := 0; i < cfg.N; i++ {
		x := make(linalg.Vec, cfg.P)
		for j := range x {
			x[j] = rng.Norm()
		}
		out.X = append(out.X, x)
		out.Y[i] = x.Dot(beta) + rng.Normal(0, cfg.Noise)
	}
	return out
}

// GenRegressionWithBeta draws n observations from a fixed coefficient
// vector (so machines of a distributed run share one planted truth). It
// materializes OpenRegressionWithBeta's stream.
func GenRegressionWithBeta(rng *randgen.RNG, beta linalg.Vec, n int, noise float64) *RegressionData {
	next := OpenRegressionWithBeta(rng, beta, noise)
	out := &RegressionData{TrueBeta: beta, Y: make(linalg.Vec, n)}
	for i := 0; i < n; i++ {
		o := next()
		out.X = append(out.X, o.X)
		out.Y[i] = o.Y
	}
	return out
}

// SparseBeta draws a sparse coefficient vector with the given number of
// non-zero entries of magnitude 2-5.
func SparseBeta(rng *randgen.RNG, p, sparsity int) linalg.Vec {
	beta := linalg.NewVec(p)
	for s := 0; s < sparsity && s < p; s++ {
		j := rng.Intn(p)
		for beta[j] != 0 {
			j = rng.Intn(p)
		}
		mag := 2 + 3*rng.Float64()
		if rng.Float64() < 0.5 {
			mag = -mag
		}
		beta[j] = mag
	}
	return beta
}

// CorpusConfig parameterizes the synthetic text corpus.
type CorpusConfig struct {
	Docs   int // number of documents
	Vocab  int // dictionary size (paper: 10,000)
	AvgLen int // average document length (paper: ~210)
	Topics int // planted latent structure groups (0 = pure Zipf)
	// Sampler is the task's sampler tier — the one sampler knob. The
	// dense default draws words through the historical CDF binary search
	// (O(log V), byte-identical to the paper tables); any non-dense tier
	// draws through a Walker alias table (O(1) per word): a run that
	// opted out of the O(T) token scan should not pay the O(log V)
	// corpus draw either. The distributions are identical but the draws
	// consume randomness differently, so the word streams differ.
	Sampler randgen.SamplerTier
}

// GenCorpus generates documents. With Topics > 0, each document draws
// from a planted per-topic Zipf-permuted word distribution so that topic
// and HMM learners have real structure to recover; lengths vary ±50%
// around AvgLen. It materializes OpenCorpus's stream.
func GenCorpus(rng *randgen.RNG, cfg CorpusConfig) [][]int {
	next := OpenCorpus(rng, cfg)
	docs := make([][]int, cfg.Docs)
	for d := range docs {
		docs[d] = next()
	}
	return docs
}

// Censor hides values as the paper's Section 9 does: each point draws
// p ~ Beta(1, 1) and censors every coordinate independently with
// probability p (about 50% of all values overall). It returns the
// censored copies and the missingness masks; points keep at least the
// original values in censored positions replaced by 0 placeholders.
func Censor(rng *randgen.RNG, points []linalg.Vec) (censored []linalg.Vec, missing [][]bool) {
	for _, x := range points {
		p := rng.Beta(1, 1)
		cx := x.Clone()
		mask := make([]bool, len(x))
		for d := range x {
			if rng.Float64() < p {
				mask[d] = true
				cx[d] = 0
			}
		}
		censored = append(censored, cx)
		missing = append(missing, mask)
	}
	return
}

// Moments returns the mean and per-dimension variance of a point set —
// the empirical hyperparameters every platform's GMM initialization
// computes first.
func Moments(points []linalg.Vec) (mean, variance linalg.Vec) {
	if len(points) == 0 {
		return nil, nil
	}
	d := len(points[0])
	mean = linalg.NewVec(d)
	variance = linalg.NewVec(d)
	for _, x := range points {
		x.AddTo(mean)
	}
	mean.ScaleInPlace(1 / float64(len(points)))
	for _, x := range points {
		for i := range x {
			diff := x[i] - mean[i]
			variance[i] += diff * diff
		}
	}
	variance.ScaleInPlace(1 / float64(len(points)))
	return
}
