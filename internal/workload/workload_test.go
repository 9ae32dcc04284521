package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"mlbench/internal/randgen"
)

func TestGenGMMShapesAndLabels(t *testing.T) {
	rng := randgen.New(1)
	d := GenGMM(rng, GMMConfig{N: 500, D: 3, K: 4})
	if len(d.Points) != 500 || len(d.Labels) != 500 || len(d.Mu) != 4 {
		t.Fatalf("shapes wrong")
	}
	for _, l := range d.Labels {
		if l < 0 || l >= 4 {
			t.Errorf("label %d out of range", l)
		}
	}
	// Points should be near their planted centers (unit covariance).
	for i, x := range d.Points {
		if dist := x.Sub(d.Mu[d.Labels[i]]).Norm2(); dist > 6*math.Sqrt(3) {
			t.Errorf("point %d is %v from its center", i, dist)
		}
	}
}

func TestGenGMMDeterministic(t *testing.T) {
	a := GenGMM(randgen.New(5), GMMConfig{N: 10, D: 2, K: 2})
	b := GenGMM(randgen.New(5), GMMConfig{N: 10, D: 2, K: 2})
	for i := range a.Points {
		if a.Points[i][0] != b.Points[i][0] {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestGenRegressionTruth(t *testing.T) {
	rng := randgen.New(2)
	d := GenRegression(rng, RegressionConfig{N: 2000, P: 8, Sparsity: 3, Noise: 0.1})
	nz := 0
	for _, b := range d.TrueBeta {
		if b != 0 {
			nz++
			if math.Abs(b) < 2 {
				t.Errorf("nonzero coefficient %v too small", b)
			}
		}
	}
	if nz != 3 {
		t.Errorf("sparsity = %d, want 3", nz)
	}
	// Residuals should be near the configured noise level.
	var sse float64
	for i, x := range d.X {
		r := d.Y[i] - x.Dot(d.TrueBeta)
		sse += r * r
	}
	if rmse := math.Sqrt(sse / 2000); math.Abs(rmse-0.1) > 0.02 {
		t.Errorf("rmse = %v, want ~0.1", rmse)
	}
}

func TestGenCorpusShape(t *testing.T) {
	rng := randgen.New(3)
	docs := GenCorpus(rng, CorpusConfig{Docs: 200, Vocab: 1000, AvgLen: 100, Topics: 4})
	if len(docs) != 200 {
		t.Fatalf("docs = %d", len(docs))
	}
	var totalLen int
	for _, doc := range docs {
		totalLen += len(doc)
		for _, w := range doc {
			if w < 0 || w >= 1000 {
				t.Fatalf("word %d out of vocabulary", w)
			}
		}
	}
	avg := float64(totalLen) / 200
	if avg < 70 || avg > 130 {
		t.Errorf("average length = %v, want ~100", avg)
	}
}

func TestGenCorpusSkewedFrequencies(t *testing.T) {
	rng := randgen.New(4)
	docs := GenCorpus(rng, CorpusConfig{Docs: 300, Vocab: 500, AvgLen: 100, Topics: 1})
	counts := make([]int, 500)
	total := 0
	for _, doc := range docs {
		for _, w := range doc {
			counts[w]++
			total++
		}
	}
	// Zipf: the most frequent word should hold a large share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if share := float64(max) / float64(total); share < 0.02 {
		t.Errorf("top word share = %v, expected a skewed profile", share)
	}
}

func TestGenCorpusTopicsDiffer(t *testing.T) {
	rng := randgen.New(5)
	docs := GenCorpus(rng, CorpusConfig{Docs: 2, Vocab: 10000, AvgLen: 5000, Topics: 2})
	// With two different planted topics, the dominant words of documents
	// from different topics should differ most of the time. Compare top
	// words of the two docs.
	top := func(doc []int) int {
		counts := map[int]int{}
		best, bestC := -1, -1
		for _, w := range doc {
			counts[w]++
			if counts[w] > bestC {
				best, bestC = w, counts[w]
			}
		}
		return best
	}
	if len(docs) == 2 && top(docs[0]) == top(docs[1]) {
		t.Log("two docs share a top word; acceptable if they drew the same topic")
	}
}

func TestCensorRate(t *testing.T) {
	rng := randgen.New(6)
	d := GenGMM(rng, GMMConfig{N: 2000, D: 10, K: 2})
	censored, missing := Censor(rng, d.Points)
	if len(censored) != 2000 || len(missing) != 2000 {
		t.Fatalf("shapes wrong")
	}
	hidden, total := 0, 0
	for i := range missing {
		for dim, m := range missing[i] {
			total++
			if m {
				hidden++
				if censored[i][dim] != 0 {
					t.Fatal("censored value not zeroed")
				}
			} else if censored[i][dim] != d.Points[i][dim] {
				t.Fatal("observed value changed")
			}
		}
	}
	if rate := float64(hidden) / float64(total); rate < 0.4 || rate > 0.6 {
		t.Errorf("censor rate = %v, want ~0.5", rate)
	}
}

func TestMoments(t *testing.T) {
	mean, variance := Moments(nil)
	if mean != nil || variance != nil {
		t.Error("empty moments should be nil")
	}
	pts := GenGMM(randgen.New(7), GMMConfig{N: 50000, D: 2, K: 1, Separation: 0.001}).Points
	mean, variance = Moments(pts)
	// Single cluster near origin with unit covariance.
	if math.Abs(mean[0]) > 0.05 || math.Abs(variance[0]-1) > 0.05 {
		t.Errorf("moments = %v, %v", mean, variance)
	}
}

// Property: censoring never invents values — every entry is either the
// original or zero-with-mask.
func TestQuickCensorConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		rng := randgen.New(seed)
		d := GenGMM(rng, GMMConfig{N: 20, D: 3, K: 2})
		censored, missing := Censor(rng, d.Points)
		for i := range censored {
			for dim := range censored[i] {
				if missing[i][dim] {
					if censored[i][dim] != 0 {
						return false
					}
				} else if censored[i][dim] != d.Points[i][dim] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGenRegressionWithBetaSharedTruth(t *testing.T) {
	beta := SparseBeta(randgen.New(1), 6, 2)
	a := GenRegressionWithBeta(randgen.New(2), beta, 50, 0.1)
	b := GenRegressionWithBeta(randgen.New(3), beta, 50, 0.1)
	for j := range beta {
		if a.TrueBeta[j] != b.TrueBeta[j] {
			t.Fatal("machines must share the planted coefficients")
		}
	}
	// Different rngs produce different observations.
	if a.X[0][0] == b.X[0][0] {
		t.Error("independent machines produced identical regressors")
	}
}

func TestSparseBetaCount(t *testing.T) {
	beta := SparseBeta(randgen.New(4), 20, 5)
	nz := 0
	for _, b := range beta {
		if b != 0 {
			nz++
		}
	}
	if nz != 5 {
		t.Errorf("sparsity = %d, want 5", nz)
	}
}

func TestGenCorpusDeterministic(t *testing.T) {
	cfg := CorpusConfig{Docs: 5, Vocab: 50, AvgLen: 20, Topics: 2}
	a := GenCorpus(randgen.New(9), cfg)
	b := GenCorpus(randgen.New(9), cfg)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("document lengths differ across identical seeds")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("words differ across identical seeds")
			}
		}
	}
}

// Corpus opens share one word table per (vocabulary, exponent, tier),
// equal to a fresh build, while ZipfWeights keeps returning a fresh slice
// its callers may normalise in place.
func TestZipfTablesShared(t *testing.T) {
	if zipfAlias(50, 1.05) != zipfAlias(50, 1.05) {
		t.Error("alias table rebuilt for the same vocabulary")
	}
	if !reflect.DeepEqual(zipfAlias(50, 1.3).Pmf(), randgen.NewAlias(ZipfWeights(50, 1.3)).Pmf()) {
		t.Error("cached alias table differs from a fresh build")
	}
	cdf := zipfCDF(50, 1.05)
	if &cdf[0] != &zipfCDF(50, 1.05)[0] {
		t.Error("dense cdf rebuilt for the same vocabulary")
	}
	if cdf[len(cdf)-1] < 1-1e-12 || cdf[0] <= 0 {
		t.Errorf("dense cdf not normalised: first %v, last %v", cdf[0], cdf[len(cdf)-1])
	}
	a := ZipfWeights(5, 1.05)
	a[0] = -1
	if ZipfWeights(5, 1.05)[0] != 1 {
		t.Error("ZipfWeights returned a shared slice")
	}
}

func TestGenCorpusAliasSameDistribution(t *testing.T) {
	// The alias path draws from the same Zipf profile as the CDF path: the
	// aggregate word-frequency ranks must agree even though the word
	// streams differ (the samplers consume randomness differently).
	count := func(tier randgen.SamplerTier) []int {
		cfg := CorpusConfig{Docs: 400, Vocab: 200, AvgLen: 100, Topics: 1, Sampler: tier}
		counts := make([]int, cfg.Vocab)
		for _, doc := range GenCorpus(randgen.New(17), cfg) {
			for _, w := range doc {
				counts[w]++
			}
		}
		return counts
	}
	cdf, alias := count(randgen.TierDense), count(randgen.TierAlias)
	// Compare the head of the distribution: each of the top ranks should
	// carry a similar share under both samplers.
	var cdfTotal, aliasTotal int
	for i := range cdf {
		cdfTotal += cdf[i]
		aliasTotal += alias[i]
	}
	// Topic 0's permutation is the same for both calls (same seed, and the
	// perm is drawn before any word), so ranks map to the same word ids.
	for w := 0; w < 200; w++ {
		p, q := float64(cdf[w])/float64(cdfTotal), float64(alias[w])/float64(aliasTotal)
		if p > 0.01 && (q < p/2 || q > p*2) {
			t.Errorf("word %d share: cdf %v vs alias %v", w, p, q)
		}
	}
}

func TestGenCorpusSamplerTierImpliesAlias(t *testing.T) {
	// Every non-dense sampler tier routes corpus generation through the
	// alias word draw: the mhalias stream must match the alias tier's
	// exactly, and differ from the dense CDF stream.
	base := CorpusConfig{Docs: 10, Vocab: 100, AvgLen: 30, Topics: 2}
	gen := func(cfg CorpusConfig) [][]int { return GenCorpus(randgen.New(41), cfg) }
	aliasCfg, tierCfg := base, base
	aliasCfg.Sampler = randgen.TierAlias
	tierCfg.Sampler = randgen.TierMHAlias
	dense, alias, tier := gen(base), gen(aliasCfg), gen(tierCfg)
	same := func(a, b [][]int) bool {
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}
	if !same(alias, tier) {
		t.Error("Sampler: mhalias corpus differs from the alias-tier corpus")
	}
	if same(dense, tier) {
		t.Error("Sampler: mhalias corpus unexpectedly matches the dense CDF stream")
	}
}

func TestPlantedMeansSeparation(t *testing.T) {
	mu := PlantedMeans(randgen.New(5), 4, 3, 8)
	if len(mu) != 4 || len(mu[0]) != 3 {
		t.Fatalf("shape wrong")
	}
	// With separation 8 the means should be well spread.
	var maxNorm float64
	for _, m := range mu {
		if n := m.Norm2(); n > maxNorm {
			maxNorm = n
		}
	}
	if maxNorm < 4 {
		t.Errorf("means suspiciously close to origin: max norm %v", maxNorm)
	}
}
