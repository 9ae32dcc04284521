package hmm

import (
	"math"
	"testing"

	"mlbench/internal/models/diag"
	"mlbench/internal/randgen"
	"mlbench/internal/workload"
)

func tierHyper() Hyper { return Hyper{K: 8, V: 40, Alpha: 1, Beta: 0.5} }

// referenceResampleStates is the pre-tier dense implementation, kept
// verbatim as the byte-identity oracle for the default path.
func referenceResampleStates(m *Model, rng *randgen.RNG, words, states []int, iter int) {
	n := len(words)
	w := make([]float64, m.K)
	for pos := 0; pos < n; pos++ {
		if (pos+1)%2 != iter%2 {
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
		var total float64
		for _, x := range w {
			total += x
		}
		if total <= 0 {
			states[pos] = rng.Intn(len(w))
		} else {
			states[pos] = rng.Categorical(w)
		}
	}
}

func tierDoc(rng *randgen.RNG, h Hyper, n int) ([]int, []int) {
	words := make([]int, n)
	for i := range words {
		words[i] = rng.Intn(h.V)
	}
	return words, InitStates(rng, words, h.K)
}

// TestDenseTierByteIdentity: the scratch-passing dense path consumes the
// RNG and assigns states exactly as the historical per-call allocation.
func TestDenseTierByteIdentity(t *testing.T) {
	h := tierHyper()
	rngA, rngB := randgen.New(6), randgen.New(6)
	mA, mB := Init(rngA, h), Init(rngB, h)
	wordsA, statesA := tierDoc(rngA, h, 99)
	wordsB, statesB := tierDoc(rngB, h, 99)
	var sc Scratch
	for iter := 0; iter < 6; iter++ {
		mA.ResampleStatesTier(rngA, wordsA, statesA, iter, randgen.TierDense, &sc)
		referenceResampleStates(mB, rngB, wordsB, statesB, iter)
		for i := range statesA {
			if statesA[i] != statesB[i] {
				t.Fatalf("iter %d pos %d: dense tier s=%d, reference s=%d", iter, i, statesA[i], statesB[i])
			}
		}
	}
}

// TestAliasTierOneHotByteIdentity: when the emission column is one-hot
// the chosen state is forced, so dense and alias tiers must agree even
// though they consume randomness differently.
func TestAliasTierOneHotByteIdentity(t *testing.T) {
	h := tierHyper()
	rng := randgen.New(12)
	m := Init(rng, h)
	// Force one-hot emissions: word w is emitted only by state w % K.
	for s := 0; s < h.K; s++ {
		for w := 0; w < h.V; w++ {
			if w%h.K == s {
				m.Psi[s][w] = 1
			} else {
				m.Psi[s][w] = 0
			}
		}
	}
	words, statesA := tierDoc(rng, h, 80)
	statesB := append([]int(nil), statesA...)
	for iter := 0; iter < 2; iter++ {
		m.ResampleStatesTier(randgen.New(1), words, statesA, iter, randgen.TierDense, nil)
		m.ResampleStatesTier(randgen.New(2), words, statesB, iter, randgen.TierAlias, nil)
	}
	for i := range statesA {
		if statesA[i] != words[i]%h.K || statesB[i] != words[i]%h.K {
			t.Fatalf("pos %d: dense s=%d alias s=%d, want %d (forced)", i, statesA[i], statesB[i], words[i]%h.K)
		}
	}
}

// TestMHAliasMarginalGoF: on a single-position document the MH kernel's
// stationary distribution is the exact conditional
// p(s) ∝ Psi_s[w] * Delta0[s]; pool a long chain and compare.
func TestMHAliasMarginalGoF(t *testing.T) {
	h := tierHyper()
	rng := randgen.New(23)
	m := Init(rng, h)
	const word = 9
	words := []int{word}
	states := []int{0}
	exact := make([]float64, h.K)
	var total float64
	for s := 0; s < h.K; s++ {
		exact[s] = m.Psi[s][word] * m.Delta0[s]
		total += exact[s]
	}
	for s := range exact {
		exact[s] /= total
	}
	m.RefreshProposals()

	const sweeps, burn = 30_000, 200
	counts := make([]float64, h.K)
	var n float64
	for it := 0; it < sweeps; it++ {
		// Position 1 (1-based) is touched on odd iterations.
		m.ResampleStatesTier(rng, words, states, 1, randgen.TierMHAlias, nil)
		if it < burn {
			continue
		}
		counts[states[0]]++
		n++
	}
	var tv, chi2 float64
	for s := 0; s < h.K; s++ {
		tv += math.Abs(counts[s]/n - exact[s])
		expected := exact[s] * n
		if expected > 0 {
			diff := counts[s] - expected
			chi2 += diff * diff / expected
		}
	}
	tv /= 2
	if tv > 0.02 {
		t.Errorf("MH marginal TV distance %v vs exact conditional, want < 0.02", tv)
	}
	// Autocorrelated chain: generous multiple of chi2(7)'s 99th
	// percentile (~18.5).
	if chi2 > 5*18.5 {
		t.Errorf("MH marginal chi-squared %v, want < %v", chi2, 5*18.5)
	}
}

// TestMHAliasRequiresRefresh: the MH tier without a proposal cache fails
// loudly.
func TestMHAliasRequiresRefresh(t *testing.T) {
	h := tierHyper()
	rng := randgen.New(4)
	m := Init(rng, h)
	words, states := tierDoc(rng, h, 6)
	defer func() {
		if recover() == nil {
			t.Error("mhalias resample without RefreshProposals should panic")
		}
	}()
	m.ResampleStatesTier(rng, words, states, 1, randgen.TierMHAlias, nil)
}

// TestMHAliasParityRespected: the MH tier only touches parity-selected
// positions, like the dense scheme.
func TestMHAliasParityRespected(t *testing.T) {
	h := tierHyper()
	rng := randgen.New(8)
	m := Init(rng, h)
	m.RefreshProposals()
	words, states := tierDoc(rng, h, 50)
	before := append([]int(nil), states...)
	m.ResampleStatesTier(rng, words, states, 0, randgen.TierMHAlias, nil)
	for pos := range states {
		if (pos+1)%2 != 0 && states[pos] != before[pos] {
			t.Errorf("iteration 0 touched odd 1-based position %d", pos+1)
		}
	}
}

// TestMHAliasChainQuality: full Gibbs chains (states and model updated)
// under the dense and mhalias tiers target the same posterior — pooled
// R-hat over per-iteration log-likelihood chains under the 1.1 bar.
func TestMHAliasChainQuality(t *testing.T) {
	h := Hyper{K: 2, V: 40, Alpha: 1, Beta: 1}
	// One shared corpus: every chain must target the same posterior, so
	// only the chain seed may vary.
	corpus := workload.GenCorpus(randgen.New(7), workload.CorpusConfig{
		Docs: 20, Vocab: h.V, AvgLen: 40, Topics: 0,
	})
	runChain := func(seed uint64, tier randgen.SamplerTier) []float64 {
		rng := randgen.New(seed)
		m := Init(rng, h)
		states := make([][]int, len(corpus))
		for i, words := range corpus {
			states[i] = InitStates(rng, words, h.K)
		}
		if tier == randgen.TierMHAlias {
			m.RefreshProposals()
		}
		// The parity scheme updates half the positions per sweep and the
		// HMM posterior over planted-structure data is sticky, so the
		// battery uses a weak-signal Zipf corpus with long chains: the
		// statistic certifies that the two kernels share a stationary
		// distribution, not fitting power.
		const iters = 800
		var sc Scratch
		chain := make([]float64, 0, iters)
		for it := 0; it < iters; it++ {
			p := NewPartial(h.K, h.V)
			for i, words := range corpus {
				m.ResampleStatesTier(rng, words, states[i], it, tier, &sc)
				p.Accumulate(words, states[i], 1)
			}
			m.UpdateModel(rng, h, total(h.K, h.V, p))
			if tier == randgen.TierMHAlias {
				m.RefreshProposals()
			}
			var ll float64
			words := 0
			for i, doc := range corpus {
				ll += m.LogLikelihood(doc, states[i])
				words += len(doc)
			}
			chain = append(chain, ll/float64(words))
		}
		return chain[400:]
	}
	chains := [][]float64{
		runChain(11, randgen.TierDense),
		runChain(22, randgen.TierDense),
		runChain(33, randgen.TierMHAlias),
		runChain(44, randgen.TierMHAlias),
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
