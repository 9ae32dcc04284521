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
	d := GenGMMAt(rng, PlantedMeans(rng, 4, 3, 8), 500)
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
	gen := func() *GMMData {
		rng := randgen.New(5)
		return GenGMMAt(rng, PlantedMeans(rng, 2, 2, 8), 10)
	}
	a, b := gen(), gen()
	for i := range a.Points {
		if a.Points[i][0] != b.Points[i][0] {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestGenRegressionTruth(t *testing.T) {
	rng := randgen.New(2)
	d := GenRegression(rng, SparseBeta(rng, 8, 3), 2000, RegressionConfig{Noise: 0.1})
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
	d := GenGMMAt(rng, PlantedMeans(rng, 2, 10, 8), 2000)
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
	rng := randgen.New(7)
	pts := GenGMMAt(rng, PlantedMeans(rng, 1, 2, 0.001), 50000).Points
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
		d := GenGMMAt(rng, PlantedMeans(rng, 2, 3, 8), 20)
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

func TestGenRegressionSharedTruth(t *testing.T) {
	beta := SparseBeta(randgen.New(1), 6, 2)
	a := GenRegression(randgen.New(2), beta, 50, RegressionConfig{Noise: 0.1})
	b := GenRegression(randgen.New(3), beta, 50, RegressionConfig{Noise: 0.1})
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

func TestGenCorpusShapeKnobs(t *testing.T) {
	cfg := CorpusConfig{
		Docs: 300, Vocab: 500, AvgLen: 80, Topics: 6, Sampler: randgen.TierAlias,
		ZipfS: 1.5, TopicSkew: 1.2, LenDist: LenLognormal, LenSigma: 0.7,
	}
	docs := GenCorpus(randgen.New(5), cfg)
	if len(docs) != 300 {
		t.Fatalf("docs = %d", len(docs))
	}
	var total int
	for _, d := range docs {
		if len(d) < 2 {
			t.Fatalf("degenerate doc length %d", len(d))
		}
		for _, w := range d {
			if w < 0 || w >= 500 {
				t.Fatalf("word %d out of vocabulary", w)
			}
		}
		total += len(d)
	}
	if mean := float64(total) / 300; mean < 60 || mean > 100 {
		t.Errorf("mean doc length = %.1f, want ~80", mean)
	}
	if again := GenCorpus(randgen.New(5), cfg); !reflect.DeepEqual(docs, again) {
		t.Error("shaped corpus not reproducible")
	}
}

// TestPlantedMixtureStructure checks the two GMM shape knobs: mixture
// imbalance concentrates labels on the first components, and covariance
// conditioning stretches per-cluster axis variances by the declared
// ratio.
func TestPlantedMixtureStructure(t *testing.T) {
	rng := randgen.New(6)
	cfg := GMMConfig{D: 6, K: 5, Separation: 50, CovCondition: 16, Imbalance: 1.5}
	data := NewPlantedMixture(rng, cfg).Gen(rng, 20_000)
	counts := make([]int, cfg.K)
	for _, l := range data.Labels {
		counts[l]++
	}
	if counts[0] <= 2*counts[cfg.K-1] {
		t.Errorf("mixture not imbalanced: %v", counts)
	}
	// Cluster 0's axis variances: means are far apart (separation 50), so
	// assignment by label is clean; compare the largest and smallest
	// per-axis sample variance against the declared condition number.
	var pts [][]float64
	for i, x := range data.Points {
		if data.Labels[i] == 0 {
			pts = append(pts, x)
		}
	}
	minV, maxV := math.Inf(1), 0.0
	for j := 0; j < cfg.D; j++ {
		var sum, sumSq float64
		for _, x := range pts {
			sum += x[j]
			sumSq += x[j] * x[j]
		}
		n := float64(len(pts))
		v := sumSq/n - (sum/n)*(sum/n)
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	if ratio := maxV / minV; ratio < 8 || ratio > 32 {
		t.Errorf("axis variance ratio = %.1f, want ~16", ratio)
	}
	// Zero knobs plant unit scales and uniform weights.
	rng = randgen.New(7)
	sph := NewPlantedMixture(rng, GMMConfig{D: 4, K: 3, Separation: 50})
	for _, s := range sph.Sigma {
		for _, v := range s {
			if v != 1 {
				t.Fatalf("zero-knob axis scale %v, want 1", v)
			}
		}
	}
	counts = make([]int, 3)
	for _, l := range sph.Gen(rng, 5000).Labels {
		counts[l]++
	}
	for _, c := range counts {
		if c < 1200 || c > 2200 {
			t.Errorf("uniform mixture counts: %v", counts)
		}
	}
}

// TestPlantedMixtureOpenMatchesGen checks that the stream and the
// materialized form of a mixture yield the same points.
func TestPlantedMixtureOpenMatchesGen(t *testing.T) {
	mix := NewPlantedMixture(randgen.New(3), GMMConfig{D: 3, K: 4, CovCondition: 4, Imbalance: 1})
	want := mix.Gen(randgen.New(4), 300).Points
	next := mix.Open(randgen.New(4))
	for i := range want {
		if got := next(); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("point %d: stream %v, materialized %v", i, got, want[i])
		}
	}
}

// TestGenRegressionAR1 checks the design's lag-1 correlation and unit
// marginal variance.
func TestGenRegressionAR1(t *testing.T) {
	const n, p, rho = 4000, 20, 0.7
	rng := randgen.New(8)
	beta := SparseBeta(rng, p, 3)
	data := GenRegression(rng, beta, n, RegressionConfig{Rho: rho})
	if len(data.X) != n || len(data.Y) != n {
		t.Fatalf("sizes: %d, %d", len(data.X), len(data.Y))
	}
	var dot, vj, vk float64
	for _, x := range data.X {
		dot += x[10] * x[11]
		vj += x[10] * x[10]
		vk += x[11] * x[11]
	}
	if r := dot / math.Sqrt(vj*vk); math.Abs(r-rho) > 0.05 {
		t.Errorf("lag-1 correlation = %.3f, want ~%v", r, rho)
	}
	if v := vj / n; v < 0.9 || v > 1.1 {
		t.Errorf("marginal variance = %.3f, want ~1", v)
	}
	// Responses follow the planted truth.
	var resid float64
	for i, x := range data.X {
		d := data.Y[i] - x.Dot(beta)
		resid += d * d
	}
	if rv := resid / n; rv < 0.8 || rv > 1.2 {
		t.Errorf("residual variance = %.3f, want ~1", rv)
	}
}
