package lda

import (
	"math"
	"testing"

	"mlbench/internal/linalg"
	"mlbench/internal/models/diag"
	"mlbench/internal/randgen"
	"mlbench/internal/workload"
)

func tierHyper() Hyper { return Hyper{T: 10, V: 40, Alpha: 0.5, Beta: 0.1} }

func testDoc(rng *randgen.RNG, h Hyper, n int) *Doc {
	words := make([]int, n)
	for i := range words {
		words[i] = rng.Intn(h.V)
	}
	return InitDoc(rng, words, h)
}

// referenceResampleZ is the pre-tier dense implementation, kept verbatim
// as the byte-identity oracle for the default path: fresh weight buffer,
// inline total, Intn underflow fallback, Categorical draw.
func referenceResampleZ(m *Model, rng *randgen.RNG, d *Doc) {
	w := make([]float64, m.T)
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
		d.Z[i] = rng.Categorical(w)
	}
}

// TestDenseTierByteIdentity: the scratch-hoisted dense path consumes the
// RNG and assigns topics exactly as the historical allocation-per-call
// implementation — the property the golden figure snapshots rest on.
func TestDenseTierByteIdentity(t *testing.T) {
	h := tierHyper()
	rngA, rngB := randgen.New(3), randgen.New(3)
	modelA, modelB := Init(rngA, h), Init(rngB, h)
	docA, docB := testDoc(rngA, h, 200), testDoc(rngB, h, 200)
	for iter := 0; iter < 5; iter++ {
		modelA.ResampleZTier(rngA, docA, randgen.TierDense)
		referenceResampleZ(modelB, rngB, docB)
		for i := range docA.Z {
			if docA.Z[i] != docB.Z[i] {
				t.Fatalf("iter %d token %d: dense tier z=%d, reference z=%d", iter, i, docA.Z[i], docB.Z[i])
			}
		}
		docA.ResampleTheta(rngA, h)
		// Reference theta update: allocate counts, smooth, draw.
		f := make([]float64, h.T)
		for _, z := range docB.Z {
			f[z]++
		}
		for k := range f {
			f[k] += h.Alpha
		}
		docB.Theta = rngB.Dirichlet(f)
		for k := range docA.Theta {
			if math.Float64bits(docA.Theta[k]) != math.Float64bits(docB.Theta[k]) {
				t.Fatalf("iter %d: theta[%d] diverged: %v vs %v", iter, k, docA.Theta[k], docB.Theta[k])
			}
		}
	}
}

// TestAliasTierOneHotByteIdentity: where the conditional is one-hot the
// chosen topic is forced, so dense and alias tiers must produce the same
// assignments even though they consume randomness differently.
func TestAliasTierOneHotByteIdentity(t *testing.T) {
	h := tierHyper()
	rng := randgen.New(9)
	m := Init(rng, h)
	dA, dB := testDoc(rng, h, 120), testDoc(rng, h, 120)
	copy(dB.Words, dA.Words)
	copy(dB.Z, dA.Z)
	// One-hot theta: only topic 3 has mass, so every token's weight
	// vector is one-hot regardless of phi.
	theta := make(linalg.Vec, h.T)
	theta[3] = 1
	dA.Theta, dB.Theta = theta, theta.Clone()
	m.ResampleZTier(randgen.New(1), dA, randgen.TierDense)
	m.ResampleZTier(randgen.New(2), dB, randgen.TierAlias)
	for i := range dA.Z {
		if dA.Z[i] != 3 || dB.Z[i] != 3 {
			t.Fatalf("token %d: dense z=%d alias z=%d, want 3 (forced)", i, dA.Z[i], dB.Z[i])
		}
	}
}

// TestAliasTierMarginal: on a generic conditional the alias tier draws
// the same distribution as dense (the alias method is exact): compare
// both empirical marginals to the exact conditional.
func TestAliasTierMarginal(t *testing.T) {
	h := tierHyper()
	rng := randgen.New(21)
	m := Init(rng, h)
	d := testDoc(rng, h, 1)
	d.Words[0] = 7
	exact := exactConditional(m, d, 7)
	for _, tier := range []randgen.SamplerTier{randgen.TierDense, randgen.TierAlias} {
		if tv := tierMarginalTV(m, d, tier, exact, 40_000); tv > 0.02 {
			t.Errorf("%v tier marginal TV distance %v vs exact conditional, want < 0.02", tier, tv)
		}
	}
}

func exactConditional(m *Model, d *Doc, word int) []float64 {
	p := make([]float64, m.T)
	var total float64
	for t := 0; t < m.T; t++ {
		p[t] = d.Theta[t] * m.Phi[t][word]
		total += p[t]
	}
	for t := range p {
		p[t] /= total
	}
	return p
}

func tierMarginalTV(m *Model, proto *Doc, tier randgen.SamplerTier, exact []float64, draws int) float64 {
	rng := randgen.New(55)
	d := &Doc{Words: proto.Words, Z: append([]int(nil), proto.Z...), Theta: proto.Theta}
	counts := make([]float64, m.T)
	for i := 0; i < draws; i++ {
		m.ResampleZTier(rng, d, tier)
		counts[d.Z[0]]++
	}
	var tv float64
	for t := range counts {
		tv += math.Abs(counts[t]/float64(draws) - exact[t])
	}
	return tv / 2
}

// TestMHAliasMarginalGoF: the MH kernel's stationary marginal matches the
// exact dense conditional. Theta and phi are held fixed, so each token's
// conditional is independent of the other tokens' assignments; sweeping
// the full document and pooling every token's sample gives the marginal.
// Both a total-variation check and a chi-squared statistic guard it.
func TestMHAliasMarginalGoF(t *testing.T) {
	h := tierHyper()
	rng := randgen.New(17)
	m := Init(rng, h)
	const word, nTok = 11, 60
	words := make([]int, nTok)
	for i := range words {
		words[i] = word
	}
	d := InitDoc(rng, words, h)
	exact := exactConditional(m, d, word)
	m.RefreshProposals(h)

	const sweeps, burn = 800, 50
	counts := make([]float64, h.T)
	var total float64
	for it := 0; it < sweeps; it++ {
		m.ResampleZTier(rng, d, randgen.TierMHAlias)
		if it < burn {
			continue
		}
		for _, z := range d.Z {
			counts[z]++
			total++
		}
	}
	var tv, chi2 float64
	for k := 0; k < h.T; k++ {
		emp := counts[k] / total
		tv += math.Abs(emp - exact[k])
		expected := exact[k] * total
		if expected > 0 {
			diff := counts[k] - expected
			chi2 += diff * diff / expected
		}
	}
	tv /= 2
	if tv > 0.02 {
		t.Errorf("MH marginal TV distance %v vs exact conditional, want < 0.02", tv)
	}
	// The samples are autocorrelated (they come from an MH chain), so the
	// chi-squared statistic is held to a generous multiple of the 99th
	// percentile of chi2(9) ~ 21.7 rather than the i.i.d. bound.
	if chi2 > 5*21.7 {
		t.Errorf("MH marginal chi-squared %v, want < %v", chi2, 5*21.7)
	}
}

// TestMHSparseCountsConsistent: the ordmap-backed topic counts stay in
// sync with Z across many accepted/rejected MH moves.
func TestMHSparseCountsConsistent(t *testing.T) {
	h := tierHyper()
	rng := randgen.New(31)
	m := Init(rng, h)
	d := testDoc(rng, h, 150)
	m.RefreshProposals(h)
	for it := 0; it < 20; it++ {
		m.ResampleZTier(rng, d, randgen.TierMHAlias)
	}
	want := make(map[int]int)
	for _, z := range d.Z {
		want[z]++
	}
	if d.zc == nil {
		t.Fatal("sparse counts not materialized after MH resampling")
	}
	for k := 0; k < h.T; k++ {
		if got, _ := d.zc.Get(k); got != want[k] {
			t.Errorf("topic %d: sparse count %d, recount %d", k, got, want[k])
		}
	}
	// The dense tier invalidates the sparse structure.
	m.ResampleZTier(rng, d, randgen.TierDense)
	if d.zc != nil {
		t.Error("dense resample should invalidate the sparse counts")
	}
}

// TestMHAliasRequiresRefresh: using the MH tier without a proposal cache
// is a programming error and fails loudly.
func TestMHAliasRequiresRefresh(t *testing.T) {
	h := tierHyper()
	rng := randgen.New(2)
	m := Init(rng, h)
	d := testDoc(rng, h, 5)
	defer func() {
		if recover() == nil {
			t.Error("mhalias resample without RefreshProposals should panic")
		}
	}()
	m.ResampleZTier(rng, d, randgen.TierMHAlias)
}

// TestMHAliasChainQuality: full Gibbs chains (z, theta, phi all updated)
// run under the dense and mhalias tiers target the same posterior — the
// pooled Gelman-Rubin R-hat over their per-iteration log-likelihood
// chains stays under the battery's 1.1 bar.
func TestMHAliasChainQuality(t *testing.T) {
	h := Hyper{T: 5, V: 100, Alpha: 0.5, Beta: 0.1}
	runChain := func(seed uint64, tier randgen.SamplerTier) []float64 {
		rng := randgen.New(seed)
		corpus := workload.GenCorpus(rng, workload.CorpusConfig{
			Docs: 30, Vocab: h.V, AvgLen: 50, Topics: 3,
		})
		m := Init(rng, h)
		docs := make([]*Doc, len(corpus))
		for i, words := range corpus {
			docs[i] = InitDoc(rng, words, h)
		}
		if tier == randgen.TierMHAlias {
			m.RefreshProposals(h)
		}
		const iters = 60
		chain := make([]float64, 0, iters)
		for it := 0; it < iters; it++ {
			counts := NewWordCounts(h.T, h.V)
			for _, d := range docs {
				m.ResampleZTier(rng, d, tier)
				d.ResampleTheta(rng, h)
				counts.Accumulate(d, 1)
			}
			m.UpdatePhi(rng, h, counts)
			if tier == randgen.TierMHAlias {
				m.RefreshProposals(h)
			}
			var ll float64
			words := 0
			for _, d := range docs {
				ll += m.LogLikelihood(d)
				words += len(d.Words)
			}
			chain = append(chain, ll/float64(words))
		}
		return chain[20:] // burn-in
	}
	chains := [][]float64{
		runChain(101, randgen.TierDense),
		runChain(202, randgen.TierDense),
		runChain(303, randgen.TierMHAlias),
		runChain(404, randgen.TierMHAlias),
	}
	for i, c := range chains {
		if ess := diag.ESS(c); ess < 3 {
			t.Errorf("chain %d: ESS = %.2f — chain is stuck", i, ess)
		}
	}
	rhat, err := diag.RHat(chains)
	if err != nil {
		t.Fatal(err)
	}
	if rhat > 1.1 {
		t.Errorf("dense/mhalias chains disagree: R-hat = %.4f, want < 1.1", rhat)
	}
}
