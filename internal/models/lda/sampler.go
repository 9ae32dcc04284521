package lda

import (
	"mlbench/internal/linalg"
	"mlbench/internal/ordmap"
	"mlbench/internal/randgen"
)

// This file implements the sampler tiers of the LDA token hot path. The
// per-token conditional Pr[z = t] ∝ theta_t * phi_{t,w} can be drawn
// three ways (randgen.SamplerTier):
//
//   - dense: the paper-faithful O(T) scan (ResampleZ, byte-identical).
//   - alias: the same exact distribution through a freshly built
//     Walker/Vose table per token — the correctness midpoint isolating
//     "the draw mechanics changed" from "the proposal changed".
//   - mhalias: LightLDA-style O(1) amortized Metropolis-Hastings. Per
//     iteration a serial RefreshProposals snapshots phi and builds one
//     alias table per word over the snapshot column; each token then
//     takes two cycled MH moves — a doc proposal q(t) ∝ n_dt + alpha
//     drawn in O(1) from the document's sparse topic counts, and a word
//     proposal from the cached (deliberately stale) alias table — with
//     the exact accept ratio against the live theta/phi correcting for
//     the staleness.

// proposals is the mhalias tier's cache: the stale phi snapshot (the
// word-proposal q values) and one alias table per word over its column.
// Built only at serial points; read-only during concurrent resampling.
type proposals struct {
	alpha  float64 // doc-proposal Dirichlet smoothing
	alphaT float64 // alpha * T, the doc-proposal smoothing mass
	phiHat []linalg.Vec
	word   []*randgen.Alias
}

// RefreshProposals rebuilds the mhalias proposal cache from the current
// phi. It must be called at a serial point (after Init and after every
// UpdatePhi — driver update sections, parameter-server snapshot clones):
// the tables are shared read-only by every machine's resampling, so a
// concurrent rebuild would race. Letting the cache go stale on purpose
// (e.g. parameter-server workers on old snapshots) is sound — the MH
// accept ratio corrects the proposal back to the live conditional.
func (m *Model) RefreshProposals(h Hyper) {
	p := &proposals{alpha: h.Alpha, alphaT: h.Alpha * float64(m.T)}
	p.phiHat = make([]linalg.Vec, m.T)
	for t := range p.phiHat {
		p.phiHat[t] = m.Phi[t].Clone()
	}
	p.word = make([]*randgen.Alias, m.V)
	col := make([]float64, m.T)
	for w := 0; w < m.V; w++ {
		var total float64
		for t := 0; t < m.T; t++ {
			col[t] = p.phiHat[t][w]
			total += col[t]
		}
		if total <= 0 {
			// The whole column underflowed: propose uniformly, and record
			// matching q values so the accept ratio stays exact.
			for t := 0; t < m.T; t++ {
				col[t] = 1
				p.phiHat[t][w] = 1
			}
		}
		p.word[w] = randgen.NewAlias(col)
	}
	m.props = p
}

// ResampleZTier redraws every topic assignment through the given sampler
// tier. TierDense is exactly ResampleZ.
func (m *Model) ResampleZTier(rng *randgen.RNG, d *Doc, tier randgen.SamplerTier) {
	switch tier {
	case randgen.TierAlias:
		m.resampleZAlias(rng, d)
	case randgen.TierMHAlias:
		m.resampleZMH(rng, d)
	default:
		m.ResampleZ(rng, d)
	}
}

// resampleZAlias draws the exact dense conditional through a per-token
// alias table: identical distribution, different randomness consumption.
func (m *Model) resampleZAlias(rng *randgen.RNG, d *Doc) {
	d.zc = nil
	w := d.weights(m.T)
	for i, word := range d.Words {
		var total float64
		for t := 0; t < m.T; t++ {
			w[t] = d.Theta[t] * m.Phi[t][word]
			total += w[t]
		}
		if total <= 0 {
			d.Z[i] = rng.Intn(m.T)
			continue
		}
		d.Z[i] = randgen.NewAlias(w).Draw(rng)
	}
}

// zCounts returns the document's sparse topic counts, building them from
// Z on first use. The Doc is single-owner, so lazy build cannot race.
func (d *Doc) zCounts() *ordmap.Map[int, int] {
	if d.zc == nil {
		d.zc = ordmap.New[int, int]()
		for _, z := range d.Z {
			n, _ := d.zc.Ref(z)
			*n++
		}
	}
	return d.zc
}

// moveZ retargets token i and keeps the sparse counts in sync.
func (d *Doc) moveZ(i, from, to int) {
	n, _ := d.zc.Ref(from)
	*n--
	n, _ = d.zc.Ref(to)
	*n++
	d.Z[i] = to
}

// resampleZMH takes two cycled Metropolis-Hastings moves per token.
//
// Doc proposal — q(t) = (n_dt + alpha) / (N + alpha*T), drawn in O(1):
// with probability N/(N+alpha*T) adopt the topic of a uniformly random
// token of the document (including the current one), else a uniform
// topic. Because the counts include token i, the proposal depends on the
// current state s; the exact reverse/forward correction is
// (n_ds - 1 + alpha) / (n_dt' + alpha).
//
// Word proposal — q(t) ∝ phiHat_{t,w} from the cached stale alias table;
// state-independent, so the correction is phiHat_{s,w} / phiHat_{t',w}.
//
// Both accept ratios target the live p(t) = theta_t * phi_{t,w}, which is
// what makes the deliberately stale tables exact rather than approximate.
func (m *Model) resampleZMH(rng *randgen.RNG, d *Doc) {
	p := m.props
	if p == nil {
		panic("lda: mhalias resampling without RefreshProposals (must be rebuilt at a serial point after every phi update)")
	}
	if len(d.Z) == 0 {
		return
	}
	zc := d.zCounts()
	n := float64(len(d.Z))
	docMass := n + p.alphaT
	for i, word := range d.Words {
		s := d.Z[i]
		ps := d.Theta[s] * m.Phi[s][word]
		// Cycle 1: doc proposal.
		var t int
		if rng.Float64()*docMass < n {
			t = d.Z[rng.Intn(len(d.Z))]
		} else {
			t = rng.Intn(m.T)
		}
		if t != s {
			cs, _ := zc.Get(s)
			ct, _ := zc.Get(t)
			pt := d.Theta[t] * m.Phi[t][word]
			num := pt * (float64(cs) - 1 + p.alpha)
			den := ps * (float64(ct) + p.alpha)
			if den <= 0 || rng.Float64()*den < num {
				d.moveZ(i, s, t)
				s, ps = t, pt
			}
		}
		// Cycle 2: word proposal from the cached stale table.
		t = p.word[word].Draw(rng)
		if t != s {
			pt := d.Theta[t] * m.Phi[t][word]
			num := pt * p.phiHat[s][word]
			den := ps * p.phiHat[t][word]
			if den <= 0 || rng.Float64()*den < num {
				d.moveZ(i, s, t)
			}
		}
	}
}

// ZFlopsTier approximates the per-word resampling work under a tier:
// the dense scan is the historical 3T, the per-token alias build roughly
// doubles it, and the MH moves are a small constant (two O(1) proposals
// with three-factor accept ratios) independent of T.
func ZFlopsTier(tier randgen.SamplerTier, t int) float64 {
	switch tier {
	case randgen.TierAlias:
		return 6 * float64(t)
	case randgen.TierMHAlias:
		return 24
	default:
		return ZFlops(t)
	}
}

// ProposalFlops is the serial cost of one RefreshProposals: snapshotting
// phi plus building V alias tables over T-entry columns.
func ProposalFlops(t, v int) float64 { return 5 * float64(t) * float64(v) }
