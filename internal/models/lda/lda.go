// Package lda implements the non-collapsed latent Dirichlet allocation
// Gibbs sampler of the paper's Section 8. The paper deliberately
// benchmarks the NON-collapsed sampler: unlike the ubiquitous collapsed
// variant, it keeps the per-document topic distributions theta_j and the
// topic-word distributions phi_t as explicit variables, which makes the
// parallel updates exactly correct (the collapsed sampler's concurrent
// updates ignore the correlations that collapsing induces).
package lda

import (
	"math"

	"mlbench/internal/linalg"
	"mlbench/internal/models/sparse"
	"mlbench/internal/ordmap"
	"mlbench/internal/randgen"
)

// Hyper holds the model's fixed configuration.
type Hyper struct {
	T     int     // topics
	V     int     // vocabulary size
	Alpha float64 // Dirichlet prior on document-topic distributions
	Beta  float64 // Dirichlet prior on topic-word distributions
}

// Model is the global chain state: the topic-word matrix phi.
type Model struct {
	T, V int
	Phi  []linalg.Vec // T x V

	// beta is UpdatePhi's reusable posterior-parameter scratch. UpdatePhi
	// only runs at serial points (driver sections, parameter-server
	// Apply), so Model-level scratch is safe; the concurrent resampling
	// path keeps its scratch on Doc instead.
	beta []float64
	// props is the mhalias tier's cached proposal structure; built at
	// serial points via RefreshProposals, read-only while resampling.
	props *proposals
}

// Bytes returns the simulated size of the topic-word matrix — the model
// payload whose five-fold growth over the HMM "makes the task a bit more
// difficult, especially for Giraph".
func (m *Model) Bytes() int64 { return int64(8 * m.T * m.V) }

// Init draws phi from the prior.
func Init(rng *randgen.RNG, h Hyper) *Model {
	m := &Model{T: h.T, V: h.V}
	beta := make([]float64, h.V)
	for i := range beta {
		beta[i] = h.Beta
	}
	for t := 0; t < h.T; t++ {
		m.Phi = append(m.Phi, rng.Dirichlet(beta))
	}
	return m
}

// Doc is one document's chain state: its words, topic assignments z and
// topic distribution theta.
type Doc struct {
	Words []int
	Z     []int
	Theta linalg.Vec

	// w is the document's reusable weight scratch for the resampling hot
	// path. A Doc is owned by one simulated machine, so per-Doc scratch
	// is safe under host-parallel supersteps where the Model is shared.
	w []float64
	// zc holds the mhalias tier's sparse per-topic assignment counts
	// (topic -> count, insertion-ordered for determinism); nil until the
	// first MH resample and invalidated by the dense/alias tiers.
	zc *ordmap.Map[int, int]
}

// weights returns the document's scratch buffer sized for t topics.
func (d *Doc) weights(t int) []float64 {
	if cap(d.w) < t {
		d.w = make([]float64, t)
	}
	return d.w[:t]
}

// InitDoc assigns uniform random topics and a prior theta draw.
func InitDoc(rng *randgen.RNG, words []int, h Hyper) *Doc {
	d := &Doc{Words: words, Z: make([]int, len(words))}
	for i := range d.Z {
		d.Z[i] = rng.Intn(h.T)
	}
	alpha := make([]float64, h.T)
	for i := range alpha {
		alpha[i] = h.Alpha
	}
	d.Theta = rng.Dirichlet(alpha)
	return d
}

// ResampleZ redraws every topic assignment in the document:
// Pr[z = t] ∝ theta_t * phi_{t, w}.
func (m *Model) ResampleZ(rng *randgen.RNG, d *Doc) {
	d.zc = nil
	w := d.weights(m.T)
	for i, word := range d.Words {
		for t := 0; t < m.T; t++ {
			w[t] = d.Theta[t] * m.Phi[t][word]
		}
		d.Z[i] = rng.CategoricalSafe(w)
	}
}

// ZFlops approximates the work of resampling one word's topic.
func ZFlops(t int) float64 { return 3 * float64(t) }

// ResampleTheta redraws theta_j ~ Dirichlet(alpha + f(j, .)), where
// f(j, .) is the document's per-topic assignment count. The posterior
// parameters are accumulated in the document's scratch buffer, count
// first and then smoothed, which avoids a per-call allocation.
func (d *Doc) ResampleTheta(rng *randgen.RNG, h Hyper) {
	f := d.weights(h.T)
	for t := range f {
		f[t] = 0
	}
	for _, z := range d.Z {
		f[z]++
	}
	for t := range f {
		f[t] += h.Alpha
	}
	d.Theta = rng.Dirichlet(f)
}

// Tally adds the document's assignments, with the given weight, to a
// sender's sparse g(t, w) partial (rows are topics, V wide). Receivers
// fold partials into their dense WordCounts with p.AddTo(c.G).
func (d *Doc) Tally(p *sparse.Counts, weight float64) {
	for i, word := range d.Words {
		p.Add(d.Z[i], word, weight)
	}
}

// WordCounts is a receiver's dense total of g(t, w): per-topic word
// counts across documents.
type WordCounts struct {
	T, V int
	G    []linalg.Vec // T x V
}

// NewWordCounts returns zeroed counts.
func NewWordCounts(t, v int) *WordCounts {
	c := &WordCounts{T: t, V: v}
	for i := 0; i < t; i++ {
		c.G = append(c.G, linalg.NewVec(v))
	}
	return c
}

// Accumulate absorbs one document's assignments with the given weight.
func (c *WordCounts) Accumulate(d *Doc, weight float64) {
	for i, word := range d.Words {
		c.G[d.Z[i]][word] += weight
	}
}

// UpdatePhi redraws each phi_t ~ Dirichlet(beta + g(t, .)). m is mutated.
// UpdatePhi runs only at serial points, so it may use the Model scratch.
func (m *Model) UpdatePhi(rng *randgen.RNG, h Hyper, c *WordCounts) {
	if cap(m.beta) < m.V {
		m.beta = make([]float64, m.V)
	}
	beta := m.beta[:m.V]
	for t := 0; t < m.T; t++ {
		for w := range beta {
			beta[w] = h.Beta + c.G[t][w]
		}
		m.Phi[t] = rng.Dirichlet(beta)
	}
}

// LogLikelihood returns the document's word log-likelihood under its
// theta and the model (a convergence diagnostic; lower perplexity =
// higher value).
func (m *Model) LogLikelihood(d *Doc) float64 {
	var ll float64
	for _, word := range d.Words {
		var p float64
		for t := 0; t < m.T; t++ {
			p += d.Theta[t] * m.Phi[t][word]
		}
		if p < 1e-300 {
			p = 1e-300
		}
		ll += math.Log(p)
	}
	return ll
}
