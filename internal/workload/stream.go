package workload

import (
	"sync"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

// This file holds the streaming entry points behind sim.Source: each
// Open* function returns a sequential generator that replays the exact
// random-draw pattern of the corresponding materialized generator, so a
// chunked consumer sees byte-for-byte the element stream the historical
// slice held. The corpus and regression materialized generators
// delegate to these; the GMM ones stay inline because they also carry
// the planted labels, but consume randomness identically.

// OpenGMMAt returns a sequential point generator over the uniform
// unit-covariance mixture with the given means: per point, one
// component draw then D Normal draws, exactly as GenGMMAt consumes
// randomness.
func OpenGMMAt(rng *randgen.RNG, mu []linalg.Vec) func() linalg.Vec {
	d := len(mu[0])
	return func() linalg.Vec {
		k := rng.Intn(len(mu))
		x := make(linalg.Vec, d)
		for j := 0; j < d; j++ {
			x[j] = rng.Normal(mu[k][j], 1)
		}
		return x
	}
}

// OpenGMMSkewedAt returns a sequential point generator over a planted
// skewed mixture, replaying GenGMMSkewedAt's draw pattern (alias
// component draw, then D Normal draws).
func OpenGMMSkewedAt(rng *randgen.RNG, m *PlantedMixture) func() linalg.Vec {
	comp := randgen.NewAlias(m.Weight)
	d := len(m.Mu[0])
	return func() linalg.Vec {
		k := comp.Draw(rng)
		x := make(linalg.Vec, d)
		for j := 0; j < d; j++ {
			x[j] = rng.Normal(m.Mu[k][j], m.Sigma[k][j])
		}
		return x
	}
}

// Obs is one streamed regression observation.
type Obs struct {
	X linalg.Vec
	Y float64
}

// OpenRegressionWithBeta returns a sequential observation generator
// from a fixed coefficient vector, replaying GenRegressionWithBeta's
// draw pattern (P standard normals, then the noise draw).
func OpenRegressionWithBeta(rng *randgen.RNG, beta linalg.Vec, noise float64) func() Obs {
	if noise == 0 {
		noise = 1
	}
	p := len(beta)
	return func() Obs {
		x := make(linalg.Vec, p)
		for j := range x {
			x[j] = rng.Norm()
		}
		return Obs{X: x, Y: x.Dot(beta) + rng.Normal(0, noise)}
	}
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

// OpenCorpus returns a sequential document generator with GenCorpus's
// planted structure and draw pattern. Building the generator consumes
// the per-topic permutations from rng exactly as GenCorpus does;
// cfg.Docs is ignored — the caller bounds the stream.
func OpenCorpus(rng *randgen.RNG, cfg CorpusConfig) func() []int {
	if cfg.AvgLen == 0 {
		cfg.AvgLen = 210
	}
	topics := cfg.Topics
	if topics <= 0 {
		topics = 1
	}
	// Per-topic word distributions: a Zipf profile over a topic-specific
	// permutation of the dictionary, so topics prefer disjoint-ish words.
	// All topics share one Zipf rank profile; only the permutation differs.
	perms := make([][]int, topics)
	for t := 0; t < topics; t++ {
		perms[t] = rng.Perm(cfg.Vocab)
	}
	var sample func(t int) int
	if cfg.Sampler != randgen.TierDense {
		at := zipfAlias(cfg.Vocab, 1.05)
		sample = func(t int) int {
			return perms[t][at.Draw(rng)]
		}
	} else {
		cdf := zipfCDF(cfg.Vocab, 1.05)
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
	return func() []int {
		length := cfg.AvgLen/2 + rng.Intn(cfg.AvgLen+1)
		if length < 2 {
			length = 2
		}
		t := rng.Intn(topics)
		words := make([]int, length)
		for i := range words {
			if topics > 1 && rng.Float64() < 0.1 {
				// Background words shared across topics.
				words[i] = sample(0)
			} else {
				words[i] = sample(t)
			}
		}
		return words
	}
}

// OpenCorpusSkewed returns a sequential document generator with
// GenCorpusSkewed's shape knobs and draw pattern.
func OpenCorpusSkewed(rng *randgen.RNG, cfg SkewedCorpusConfig) func() []int {
	cfg = cfg.withDefaults()
	words := zipfAlias(cfg.Vocab, cfg.ZipfS)
	perms := make([][]int, cfg.Topics)
	for t := range perms {
		perms[t] = rng.Perm(cfg.Vocab)
	}
	var topicPick func() int
	if cfg.TopicSkew > 0 && cfg.Topics > 1 {
		topics := randgen.NewAlias(ZipfWeights(cfg.Topics, cfg.TopicSkew))
		topicPick = func() int { return topics.Draw(rng) }
	} else {
		topicPick = func() int { return rng.Intn(cfg.Topics) }
	}
	return func() []int {
		length := SampleDocLen(rng, cfg.LenDist, float64(cfg.AvgLen), cfg.LenSigma)
		t := topicPick()
		ws := make([]int, length)
		for i := range ws {
			if cfg.Topics > 1 && rng.Float64() < cfg.Background {
				ws[i] = perms[0][words.Draw(rng)]
			} else {
				ws[i] = perms[t][words.Draw(rng)]
			}
		}
		return ws
	}
}
