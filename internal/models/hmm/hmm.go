// Package hmm implements the hidden Markov model Gibbs sampler of the
// paper's Section 7: a text HMM with per-state word-emission vectors Psi_s
// and state-transition vectors delta_s under Dirichlet priors, learned by
// a sampler that updates every other state assignment per iteration
// (even positions on even iterations, odd positions on odd ones) so the
// conditional updates are valid in parallel.
package hmm

import (
	"math"

	"mlbench/internal/linalg"
	"mlbench/internal/models/sparse"
	"mlbench/internal/randgen"
)

// Hyper holds the model's fixed configuration.
type Hyper struct {
	K     int     // hidden states
	V     int     // vocabulary size
	Alpha float64 // Dirichlet prior on transitions
	Beta  float64 // Dirichlet prior on emissions
}

// Model is the chain state shared across documents: the start
// distribution delta_0, the transition matrix delta and the emission
// matrix Psi.
type Model struct {
	K, V   int
	Delta0 linalg.Vec   // start-state distribution
	Delta  []linalg.Vec // K x K transitions
	Psi    []linalg.Vec // K x V emissions

	// alpha/beta are UpdateModel's reusable posterior-parameter scratch.
	// UpdateModel only runs at serial points (driver sections,
	// parameter-server Apply), so Model-level scratch is safe; the
	// concurrent resampling path uses caller-owned Scratch instead.
	alpha, beta []float64
	// props is the mhalias tier's cached proposal structure; built at
	// serial points via RefreshProposals, read-only while resampling.
	props *hmmProposals
}

// Scratch is a reusable weight buffer for the state-resampling hot path.
// Each concurrent caller (vertex, machine partition) owns its own
// Scratch, because the Model itself is shared across host goroutines
// during supersteps. The zero value is ready to use.
type Scratch struct {
	w []float64
}

// weights returns the scratch buffer sized for k states.
func (sc *Scratch) weights(k int) []float64 {
	if cap(sc.w) < k {
		sc.w = make([]float64, k)
	}
	return sc.w[:k]
}

// Init draws a model from the priors.
func Init(rng *randgen.RNG, h Hyper) *Model {
	m := &Model{K: h.K, V: h.V}
	alpha := uniform(h.K, h.Alpha)
	beta := uniform(h.V, h.Beta)
	m.Delta0 = rng.Dirichlet(alpha)
	for s := 0; s < h.K; s++ {
		m.Delta = append(m.Delta, rng.Dirichlet(alpha))
		m.Psi = append(m.Psi, rng.Dirichlet(beta))
	}
	return m
}

func uniform(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// InitStates assigns uniformly random initial states to a document.
func InitStates(rng *randgen.RNG, words []int, k int) []int {
	states := make([]int, len(words))
	for i := range states {
		states[i] = rng.Intn(k)
	}
	return states
}

// ResampleStatesScratch updates the state assignments of one document for
// iteration iter, touching position k (1-based) only when k and iter have
// the same parity — the paper's alternating scheme. states is mutated.
// sc is a caller-owned weight buffer, for hot paths that resample many
// documents.
func (m *Model) ResampleStatesScratch(rng *randgen.RNG, words, states []int, iter int, sc *Scratch) {
	n := len(words)
	w := sc.weights(m.K)
	for pos := 0; pos < n; pos++ {
		if (pos+1)%2 != iter%2 { // 1-based position parity must match iteration parity
			continue
		}
		for s := 0; s < m.K; s++ {
			p := m.Psi[s][words[pos]]
			if pos == 0 {
				p *= m.Delta0[s]
			} else {
				p *= m.Delta[states[pos-1]][s]
			}
			if pos != n-1 {
				p *= m.Delta[s][states[pos+1]]
			}
			w[s] = p
		}
		states[pos] = rng.CategoricalSafe(w)
	}
}

// StateFlops approximates the floating-point work of resampling one
// position's state (K weights, three factors each).
func StateFlops(k int) float64 { return 4 * float64(k) }

// Counts is a receiver's dense total of the statistics the model updates
// need: f(w,s) word emissions, g(s) start states and h(s,s')
// transitions. Senders build a Partial and Fold it in.
type Counts struct {
	K, V  int
	Emit  []linalg.Vec // K x V: f(w, s)
	Start linalg.Vec   // K: g(s)
	Trans []linalg.Vec // K x K: h(s, s')
}

// NewCounts returns zeroed counts.
func NewCounts(k, v int) *Counts {
	c := &Counts{K: k, V: v, Start: linalg.NewVec(k)}
	for s := 0; s < k; s++ {
		c.Emit = append(c.Emit, linalg.NewVec(v))
		c.Trans = append(c.Trans, linalg.NewVec(k))
	}
	return c
}

// Fold adds a sender's partial into the total.
func (c *Counts) Fold(p *Partial) {
	for s := 0; s < c.K; s++ {
		c.Start[s] += p.head[s]
		for t, x := range p.head[c.K*(s+1) : c.K*(s+2)] {
			c.Trans[s][t] += x
		}
	}
	p.emit.AddTo(c.Emit)
}

// Partial is one sender's statistics (a document, block, partition or
// worker). g and h are only K + K² values and stay dense; the emissions
// are a sparse partial holding the (state, word) entries its tokens
// touched, which is what keeps a document's partial near its length
// instead of K×V.
type Partial struct {
	k    int
	head []float64 // g(s) at [0, k), then h(s, t) at k + s*k + t
	emit *sparse.Counts
}

// NewPartial returns an empty partial for k states over a v-word
// vocabulary.
func NewPartial(k, v int) *Partial {
	return &Partial{k: k, head: make([]float64, k+k*k), emit: sparse.New(v)}
}

// Accumulate absorbs one document's assignments with the given weight.
func (p *Partial) Accumulate(words, states []int, weight float64) {
	if len(words) == 0 {
		return
	}
	p.head[states[0]] += weight
	for i, w := range words {
		p.emit.Add(states[i], w, weight)
		if i+1 < len(states) {
			p.head[p.k*(states[i]+1)+states[i+1]] += weight
		}
	}
}

// Merge adds o into p.
func (p *Partial) Merge(o *Partial) {
	for i, x := range o.head {
		p.head[i] += x
	}
	p.emit.Merge(o.emit)
}

// UpdateModel draws the next model from the Dirichlet conditionals given
// the aggregated counts. m is mutated. UpdateModel runs only at serial
// points, so it may use the Model scratch.
func (m *Model) UpdateModel(rng *randgen.RNG, h Hyper, c *Counts) {
	if cap(m.alpha) < m.K {
		m.alpha = make([]float64, m.K)
	}
	if cap(m.beta) < m.V {
		m.beta = make([]float64, m.V)
	}
	alpha, beta := m.alpha[:m.K], m.beta[:m.V]
	for s := range alpha {
		alpha[s] = h.Alpha + c.Start[s]
	}
	m.Delta0 = rng.Dirichlet(alpha)
	for s := 0; s < m.K; s++ {
		for t := 0; t < m.K; t++ {
			alpha[t] = h.Alpha + c.Trans[s][t]
		}
		m.Delta[s] = rng.Dirichlet(alpha)
		for w := range beta {
			beta[w] = h.Beta + c.Emit[s][w]
		}
		m.Psi[s] = rng.Dirichlet(beta)
	}
}

// LogLikelihood returns the joint log-probability of one document's words
// and states under the model (a convergence diagnostic).
func (m *Model) LogLikelihood(words, states []int) float64 {
	if len(words) == 0 {
		return 0
	}
	ll := logf(m.Delta0[states[0]])
	for i, w := range words {
		ll += logf(m.Psi[states[i]][w])
		if i+1 < len(states) {
			ll += logf(m.Delta[states[i]][states[i+1]])
		}
	}
	return ll
}

func logf(x float64) float64 {
	if x < 1e-300 {
		x = 1e-300
	}
	return math.Log(x)
}
