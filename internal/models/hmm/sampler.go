package hmm

import (
	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

// This file implements the sampler tiers of the HMM state hot path (the
// LDA analog lives in models/lda/sampler.go). The per-position
// conditional p(s) ∝ Psi_s[w] * in(s) * out(s) — emission times incoming
// times outgoing transition factor — can be drawn three ways
// (randgen.SamplerTier): the dense O(K) scan, a per-position exact alias
// table, or O(1)-amortized Metropolis-Hastings moves against cached
// stale alias tables with the exact accept ratio.

// hmmProposals is the mhalias tier's cache: snapshots of the emission
// and transition matrices (the q values) plus alias tables — one per
// word over the Psi column (the emission proposal) and one per
// predecessor state over the Delta row (the transition proposal).
type hmmProposals struct {
	psiHat    []linalg.Vec // K x V emission snapshot
	delta0Hat linalg.Vec
	deltaHat  []linalg.Vec     // K x K transition snapshot
	emit      []*randgen.Alias // per word, over the psiHat column
	start     *randgen.Alias
	trans     []*randgen.Alias // per predecessor state, over the deltaHat row
}

// RefreshProposals rebuilds the mhalias proposal cache from the current
// model. It must run at a serial point (after Init and after every
// UpdateModel — driver update sections, parameter-server snapshot
// clones); the tables are then shared read-only by the concurrent
// resampling. Deliberately stale caches are sound: the MH accept ratio
// corrects the proposal back to the live conditional.
func (m *Model) RefreshProposals() {
	p := &hmmProposals{
		delta0Hat: m.Delta0.Clone(),
		psiHat:    make([]linalg.Vec, m.K),
		deltaHat:  make([]linalg.Vec, m.K),
	}
	for s := 0; s < m.K; s++ {
		p.psiHat[s] = m.Psi[s].Clone()
		p.deltaHat[s] = m.Delta[s].Clone()
	}
	p.start = safeAlias(p.delta0Hat)
	p.trans = make([]*randgen.Alias, m.K)
	for s := 0; s < m.K; s++ {
		p.trans[s] = safeAlias(p.deltaHat[s])
	}
	p.emit = make([]*randgen.Alias, m.V)
	col := make([]float64, m.K)
	for w := 0; w < m.V; w++ {
		var total float64
		for s := 0; s < m.K; s++ {
			col[s] = p.psiHat[s][w]
			total += col[s]
		}
		if total <= 0 {
			// Degenerate column: propose uniformly and record matching q
			// values so the accept ratio stays exact.
			for s := 0; s < m.K; s++ {
				col[s] = 1
				p.psiHat[s][w] = 1
			}
		}
		p.emit[w] = randgen.NewAlias(col)
	}
	m.props = p
}

// safeAlias builds an alias table over weights that are a Dirichlet draw
// (total 1 in exact arithmetic), guarding the all-underflow corner by
// flattening the weights in place to the uniform distribution.
func safeAlias(w linalg.Vec) *randgen.Alias {
	var total float64
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		for i := range w {
			w[i] = 1
		}
	}
	return randgen.NewAlias(w)
}

// ResampleStatesTier resamples one document's parity-selected positions
// through the given sampler tier. TierDense is exactly ResampleStatesScratch.
// sc may be nil (a private buffer is allocated); hot paths pass their
// own.
func (m *Model) ResampleStatesTier(rng *randgen.RNG, words, states []int, iter int, tier randgen.SamplerTier, sc *Scratch) {
	if sc == nil {
		sc = &Scratch{}
	}
	switch tier {
	case randgen.TierAlias:
		m.resampleStatesAlias(rng, words, states, iter, sc)
	case randgen.TierMHAlias:
		m.resampleStatesMH(rng, words, states, iter)
	default:
		m.ResampleStatesScratch(rng, words, states, iter, sc)
	}
}

// resampleStatesAlias draws the exact dense conditional through a
// per-position alias table: identical distribution, different randomness
// consumption.
func (m *Model) resampleStatesAlias(rng *randgen.RNG, words, states []int, iter int, sc *Scratch) {
	n := len(words)
	w := sc.weights(m.K)
	for pos := 0; pos < n; pos++ {
		if (pos+1)%2 != iter%2 {
			continue
		}
		var total float64
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
			total += p
		}
		if total <= 0 {
			states[pos] = rng.Intn(m.K)
			continue
		}
		states[pos] = randgen.NewAlias(w).Draw(rng)
	}
}

// target is the live three-factor conditional weight of state s at pos.
func (m *Model) target(words, states []int, pos, n, s int) float64 {
	p := m.Psi[s][words[pos]]
	if pos == 0 {
		p *= m.Delta0[s]
	} else {
		p *= m.Delta[states[pos-1]][s]
	}
	if pos != n-1 {
		p *= m.Delta[s][states[pos+1]]
	}
	return p
}

// resampleStatesMH takes two cycled Metropolis-Hastings moves per
// parity-selected position, both against state-independent cached
// proposals, so the correction is q(s)/q(s'):
//
//   - emission proposal: s' ~ alias over the cached Psi column of the
//     position's word, q(x) = psiHat_x[w];
//   - transition proposal: s' ~ alias over the cached Delta row of the
//     predecessor state (the start distribution at position 0),
//     q(x) = deltaHat_prev[x].
//
// The accept ratio targets the live model, correcting for the cache's
// staleness exactly.
func (m *Model) resampleStatesMH(rng *randgen.RNG, words, states []int, iter int) {
	p := m.props
	if p == nil {
		panic("hmm: mhalias resampling without RefreshProposals (must be rebuilt at a serial point after every model update)")
	}
	n := len(words)
	for pos := 0; pos < n; pos++ {
		if (pos+1)%2 != iter%2 {
			continue
		}
		word := words[pos]
		s := states[pos]
		ps := m.target(words, states, pos, n, s)
		// Cycle 1: emission proposal.
		t := p.emit[word].Draw(rng)
		if t != s {
			pt := m.target(words, states, pos, n, t)
			num := pt * p.psiHat[s][word]
			den := ps * p.psiHat[t][word]
			if den <= 0 || rng.Float64()*den < num {
				states[pos] = t
				s, ps = t, pt
			}
		}
		// Cycle 2: transition proposal from the predecessor's cached row.
		var qRow linalg.Vec
		if pos == 0 {
			t = p.start.Draw(rng)
			qRow = p.delta0Hat
		} else {
			prev := states[pos-1]
			t = p.trans[prev].Draw(rng)
			qRow = p.deltaHat[prev]
		}
		if t != s {
			pt := m.target(words, states, pos, n, t)
			num := pt * qRow[s]
			den := ps * qRow[t]
			if den <= 0 || rng.Float64()*den < num {
				states[pos] = t
			}
		}
	}
}

// StateFlopsTier approximates the per-position resampling work under a
// tier: the dense scan is the historical 4K, the per-position alias
// build roughly doubles it, and the MH moves are a small constant.
func StateFlopsTier(tier randgen.SamplerTier, k int) float64 {
	switch tier {
	case randgen.TierAlias:
		return 8 * float64(k)
	case randgen.TierMHAlias:
		return 24
	default:
		return StateFlops(k)
	}
}

// StateProposalFlops is the serial cost of one RefreshProposals:
// snapshotting the model plus building the emission-column, transition-
// row, and start alias tables.
func StateProposalFlops(k, v int) float64 {
	return 5 * float64(k*v+k*k+k)
}
