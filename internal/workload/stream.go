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
// slice held. The materialized generators are loops over these.

// OpenGMMAt returns a sequential point generator over the uniform
// unit-covariance mixture with the given means: per point, one
// component draw then D Normal draws, exactly as GenGMMAt consumes
// randomness.
func OpenGMMAt(rng *randgen.RNG, mu []linalg.Vec) func() linalg.Vec {
	return unlabelled(openUniformGMM(rng, mu))
}

// OpenGMMSkewedAt returns a sequential point generator over a planted
// skewed mixture, replaying GenGMMSkewedAt's draw pattern (alias
// component draw, then D Normal draws).
func OpenGMMSkewedAt(rng *randgen.RNG, m *PlantedMixture) func() linalg.Vec {
	return unlabelled(openSkewedGMM(rng, m))
}

// openUniformGMM is OpenGMMAt's generator with each point's planted
// label.
func openUniformGMM(rng *randgen.RNG, mu []linalg.Vec) func() (int, linalg.Vec) {
	ones := make(linalg.Vec, len(mu[0]))
	for j := range ones {
		ones[j] = 1
	}
	sd := make([]linalg.Vec, len(mu))
	for k := range sd {
		sd[k] = ones
	}
	return openMixture(rng, mu, sd, nil)
}

// openSkewedGMM is OpenGMMSkewedAt's generator with each point's
// planted label.
func openSkewedGMM(rng *randgen.RNG, m *PlantedMixture) func() (int, linalg.Vec) {
	return openMixture(rng, m.Mu, m.Sigma, randgen.NewAlias(m.Weight))
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

// unlabelled drops the labels from a labelled point generator.
func unlabelled(next func() (int, linalg.Vec)) func() linalg.Vec {
	return func() linalg.Vec {
		_, x := next()
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
