// Package workload generates the synthetic data sets of the paper's
// evaluation: mixture-of-Gaussians point clouds (Sections 5 and 9),
// sparse linear regression data (Section 6), and a synthetic text corpus
// standing in for the paper's "two concatenated 20-newsgroups posts"
// documents (Sections 7 and 8) — the real 20-newsgroups corpus is not
// available offline, so the corpus generator preserves the properties the
// benchmark's cost behaviour depends on: a 10,000-word dictionary, ~210
// words per document, and a skewed (Zipf-like) word-frequency profile.
//
// Each data kind has one generator. Its config carries the dimensions
// and a few shape knobs the paper's fixed data never exposed (word and
// topic skew, document-length law, covariance conditioning, mixture
// imbalance, regressor correlation); the zero knobs are the paper shape,
// byte for byte. internal/datagen maps a scenario or spec onto the knobs.
//
// Every generator is a sequential stream (Open*) behind sim.Source, so a
// chunked consumer sees exactly the elements the materialized form (Gen*)
// holds: the materialized generators are loops over the streams.
package workload

import (
	"math"
	"sync"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

// GMMConfig shapes a planted mixture. Zero knobs mean separation 8,
// spherical unit covariance and uniform weights.
type GMMConfig struct {
	D int // dimensions
	K int // planted clusters
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

// GMMData holds a generated point cloud with its planted structure.
type GMMData struct {
	Points []linalg.Vec
	Labels []int
	Mu     []linalg.Vec
}

// PlantedMixture is the planted structure of a Gaussian mixture.
// Distributed generators build it once from a shared seed so every
// machine samples the same mixture. Nil Sigma means unit axis scales and
// nil Weight means components are drawn by rng.Intn(K): the paper's
// mixture, which is PlantedMixture{Mu: PlantedMeans(...)}.
type PlantedMixture struct {
	Mu     []linalg.Vec
	Sigma  []linalg.Vec // per-cluster per-axis standard deviations
	Weight []float64    // normalized mixture weights
}

// PlantedMeans draws K cluster means with the given separation scale.
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

// NewPlantedMixture draws the planted means and derives the axis scales
// and mixture weights from the config. The weights are always set, so
// even uniform ones are drawn through an alias table: a different stream
// from the paper mixture's rng.Intn(K).
func NewPlantedMixture(rng *randgen.RNG, cfg GMMConfig) *PlantedMixture {
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

// Open returns a sequential point generator over the mixture.
func (m *PlantedMixture) Open(rng *randgen.RNG) func() linalg.Vec {
	next := m.open(rng)
	return func() linalg.Vec {
		_, x := next()
		return x
	}
}

// Gen samples n points from the mixture: the first n points of Open's
// stream, with their planted labels.
func (m *PlantedMixture) Gen(rng *randgen.RNG, n int) *GMMData {
	next := m.open(rng)
	out := &GMMData{Mu: m.Mu}
	for i := 0; i < n; i++ {
		k, x := next()
		out.Points = append(out.Points, x)
		out.Labels = append(out.Labels, k)
	}
	return out
}

// GenGMMAt samples n points from the paper mixture with the given means.
func GenGMMAt(rng *randgen.RNG, mu []linalg.Vec, n int) *GMMData {
	return (&PlantedMixture{Mu: mu}).Gen(rng, n)
}

// open is Open's generator with each point's planted label.
func (m *PlantedMixture) open(rng *randgen.RNG) func() (int, linalg.Vec) {
	sd := m.Sigma
	if sd == nil {
		ones := make(linalg.Vec, len(m.Mu[0]))
		for j := range ones {
			ones[j] = 1
		}
		sd = make([]linalg.Vec, len(m.Mu))
		for k := range sd {
			sd[k] = ones
		}
	}
	var comp *randgen.Alias
	if m.Weight != nil {
		comp = randgen.NewAlias(m.Weight)
	}
	return openMixture(rng, m.Mu, sd, comp)
}

// openMixture draws a component — from comp, or uniformly when comp is
// nil — then x_j ~ Normal(mu[k][j], sd[k][j]) for each dimension. Points
// are carved from slabs that grow 4, 8, ... up to 256 points, so a
// stream does not allocate per point and a short one does not
// over-allocate. A slab is never reused, so a consumer may keep any
// point.
func openMixture(rng *randgen.RNG, mu, sd []linalg.Vec, comp *randgen.Alias) func() (int, linalg.Vec) {
	d := len(mu[0])
	var slab linalg.Vec
	slabPoints := 4
	return func() (int, linalg.Vec) {
		var k int
		if comp != nil {
			k = comp.Draw(rng)
		} else {
			k = rng.Intn(len(mu))
		}
		if len(slab) < d {
			slab = make(linalg.Vec, slabPoints*d)
			slabPoints = min(2*slabPoints, 256)
		}
		x := slab[:d:d]
		slab = slab[d:]
		mk, sk := mu[k], sd[k]
		for j := range x {
			x[j] = rng.Normal(mk[j], sk[j])
		}
		return k, x
	}
}

// RegressionConfig shapes the regression design. Zero knobs mean the
// paper's: independent standard-normal regressors and unit noise.
type RegressionConfig struct {
	// Noise is the residual standard deviation (default 1).
	Noise float64
	// Rho is the AR(1) correlation between adjacent regressors:
	// corr(x_i, x_j) = Rho^|i-j| with unit marginal variance.
	Rho float64
}

// RegressionData holds a generated regression problem and its truth.
type RegressionData struct {
	X        []linalg.Vec
	Y        linalg.Vec
	TrueBeta linalg.Vec
}

// GenRegression draws n observations from a fixed coefficient vector (so
// machines of a distributed run share one planted truth): per
// observation, P standard normals chained into the AR(1) design, then the
// noise draw of y = x.beta + noise. Rho 0 never reads the chain, so the
// paper design's draws are plain standard normals.
func GenRegression(rng *randgen.RNG, beta linalg.Vec, n int, cfg RegressionConfig) *RegressionData {
	if cfg.Noise == 0 {
		cfg.Noise = 1
	}
	innov := math.Sqrt(1 - cfg.Rho*cfg.Rho)
	out := &RegressionData{TrueBeta: beta, Y: make(linalg.Vec, n)}
	for i := 0; i < n; i++ {
		x := make(linalg.Vec, len(beta))
		for j := range x {
			x[j] = rng.Norm()
			if cfg.Rho != 0 && j > 0 {
				x[j] = cfg.Rho*x[j-1] + innov*x[j]
			}
		}
		out.X = append(out.X, x)
		out.Y[i] = x.Dot(beta) + rng.Normal(0, cfg.Noise)
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

// Doc-length laws for CorpusConfig.LenDist.
const (
	LenUniform   = "uniform" // the paper's ±50% around the mean
	LenFixed     = "fixed"
	LenPoisson   = "poisson"
	LenLognormal = "lognormal"
)

// CorpusConfig parameterizes the synthetic text corpus: the dimensions,
// the sampler tier, and shape knobs whose zero values are the paper's.
type CorpusConfig struct {
	Docs   int // number of documents (GenCorpus)
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
	// ZipfS is the word-frequency Zipf exponent (default 1.05).
	ZipfS float64
	// TopicSkew is a Zipf exponent over the planted topic priors: 0 keeps
	// the uniform topic draw; larger values concentrate documents onto
	// the first few topics (the heavy-tailed regime where GAS ghost
	// replication and mhalias acceptance behavior diverge).
	TopicSkew float64
	// Background is the shared-vocabulary word fraction (default 0.1).
	Background float64
	// LenDist names the doc-length law (default LenUniform); LenSigma is
	// the lognormal law's log-scale shape (default 0.5), whose location
	// is chosen so the mean is AvgLen (mu = ln(AvgLen) - sigma^2/2).
	LenDist  string
	LenSigma float64
}

// GenCorpus generates cfg.Docs documents: the first documents of
// OpenCorpus's stream.
func GenCorpus(rng *randgen.RNG, cfg CorpusConfig) [][]int {
	next := OpenCorpus(rng, cfg)
	docs := make([][]int, cfg.Docs)
	for d := range docs {
		docs[d] = next()
	}
	return docs
}

// OpenCorpus returns a sequential document generator. Each document
// draws a length, then a topic, then its words from a planted per-topic
// Zipf-permuted word distribution, with a Background share of words from
// topic 0's distribution when there are several topics, so topic and
// HMM learners have real structure to recover. Building the generator
// draws the per-topic permutations from rng; cfg.Docs is ignored — the
// caller bounds the stream.
func OpenCorpus(rng *randgen.RNG, cfg CorpusConfig) func() []int {
	if cfg.AvgLen == 0 {
		cfg.AvgLen = 210
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.05
	}
	if cfg.Background == 0 {
		cfg.Background = 0.1
	}
	topics := max(cfg.Topics, 1)
	// Per-topic word distributions: a Zipf profile over a topic-specific
	// permutation of the dictionary, so topics prefer disjoint-ish words.
	// All topics share one Zipf rank profile; only the permutation differs.
	perms := make([][]int, topics)
	for t := range perms {
		perms[t] = rng.Perm(cfg.Vocab)
	}
	var sample func(t int) int
	if cfg.Sampler != randgen.TierDense {
		at := zipfAlias(cfg.Vocab, cfg.ZipfS)
		sample = func(t int) int {
			return perms[t][at.Draw(rng)]
		}
	} else {
		cdf := zipfCDF(cfg.Vocab, cfg.ZipfS)
		sample = func(t int) int {
			u := rng.Float64()
			// Binary search the cdf.
			lo, hi := 0, cfg.Vocab-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cdf[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return perms[t][lo]
		}
	}
	var topicSkew *randgen.Alias // nil: topics are drawn uniformly
	if cfg.TopicSkew > 0 && topics > 1 {
		topicSkew = randgen.NewAlias(ZipfWeights(topics, cfg.TopicSkew))
	}
	length := newLengthLaw(cfg)
	return func() []int {
		words := make([]int, max(length.draw(rng), 2))
		var t int
		if topicSkew != nil {
			t = topicSkew.Draw(rng)
		} else {
			t = rng.Intn(topics)
		}
		for i := range words {
			if topics > 1 && rng.Float64() < cfg.Background {
				words[i] = sample(0)
			} else {
				words[i] = sample(t)
			}
		}
		return words
	}
}

// lengthLaw is a corpus's doc-length law, resolved once per open and
// kept by value in the document generator.
type lengthLaw struct {
	dist      string
	mean      int
	mu, sigma float64 // the lognormal law's location and shape
}

func newLengthLaw(cfg CorpusConfig) lengthLaw {
	l := lengthLaw{dist: cfg.LenDist, mean: cfg.AvgLen, sigma: cfg.LenSigma}
	if l.dist == LenLognormal {
		if l.sigma == 0 {
			l.sigma = 0.5
		}
		l.mu = math.Log(float64(l.mean)) - l.sigma*l.sigma/2
	}
	return l
}

// draw draws one document length.
func (l lengthLaw) draw(rng *randgen.RNG) int {
	switch l.dist {
	case LenFixed:
		return l.mean
	case LenPoisson:
		return rng.Poisson(float64(l.mean))
	case LenLognormal:
		return int(math.Exp(rng.Normal(l.mu, l.sigma)))
	default: // LenUniform
		return l.mean/2 + rng.Intn(l.mean+1)
	}
}

// ZipfWeights returns the unnormalized Zipf rank profile w_r = (r+1)^-s
// over v ranks — the corpus word-frequency law, and the topic-prior and
// mixture-weight skews.
func ZipfWeights(v int, s float64) []float64 {
	weights := make([]float64, v)
	for r := 0; r < v; r++ {
		weights[r] = 1 / math.Pow(float64(r+1), s)
	}
	return weights
}

// zipfTables caches the read-only word-sampling tables built from a Zipf
// rank profile: every cursor open over a corpus partition needs the same
// table, and building one costs a math.Pow per vocabulary word. Values
// are *randgen.Alias or a dense []float64 cdf; concurrent builders of one
// key compute identical tables, so whichever is stored first is used.
var zipfTables sync.Map // zipfKey -> table

type zipfKey struct {
	v     int
	s     float64
	dense bool
}

// zipfAlias returns the shared alias table over ZipfWeights(v, s).
func zipfAlias(v int, s float64) *randgen.Alias {
	k := zipfKey{v: v, s: s}
	if t, ok := zipfTables.Load(k); ok {
		return t.(*randgen.Alias)
	}
	t, _ := zipfTables.LoadOrStore(k, randgen.NewAlias(ZipfWeights(v, s)))
	return t.(*randgen.Alias)
}

// zipfCDF returns the shared normalized cdf of ZipfWeights(v, s), the
// dense-tier word sampler's table.
func zipfCDF(v int, s float64) []float64 {
	k := zipfKey{v: v, s: s, dense: true}
	if t, ok := zipfTables.Load(k); ok {
		return t.([]float64)
	}
	weights := ZipfWeights(v, s)
	var total float64
	for _, w := range weights {
		total += w
	}
	cdf := make([]float64, v)
	var acc float64
	for r := range weights {
		acc += weights[r] / total
		cdf[r] = acc
	}
	t, _ := zipfTables.LoadOrStore(k, cdf)
	return t.([]float64)
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
