package gmm

import (
	"math"
	"testing"
	"testing/quick"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
	"mlbench/internal/workload"
)

func TestHyperFromMoments(t *testing.T) {
	h := HyperFromMoments(3, linalg.Vec{1, 2}, linalg.Vec{4, 0.25})
	if h.K != 3 || h.D != 2 {
		t.Fatalf("dims wrong: %+v", h)
	}
	if h.Lambda0.At(0, 0) != 0.25 || h.Lambda0.At(1, 1) != 4 {
		t.Errorf("Lambda0 = %v", h.Lambda0.Data)
	}
	if h.Psi.At(0, 0) != 4 {
		t.Errorf("Psi = %v", h.Psi.Data)
	}
	if h.Nu != 4 {
		t.Errorf("Nu = %v", h.Nu)
	}
	if len(h.Alpha) != 3 || h.Alpha[0] != 1 {
		t.Errorf("Alpha = %v", h.Alpha)
	}
}

func TestHyperHandlesZeroVariance(t *testing.T) {
	h := HyperFromMoments(2, linalg.Vec{0}, linalg.Vec{0})
	if math.IsInf(h.Lambda0.At(0, 0), 0) {
		t.Error("zero variance produced infinite precision")
	}
}

func TestInitProducesValidParams(t *testing.T) {
	rng := randgen.New(1)
	h := HyperFromMoments(4, linalg.Vec{0, 0, 0}, linalg.Vec{1, 1, 1})
	p, err := Init(rng, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Mu) != 4 || len(p.Sigma) != 4 {
		t.Fatalf("param shapes wrong")
	}
	var s float64
	for _, v := range p.Pi {
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("Pi sums to %v", s)
	}
	if p.Bytes() <= 0 {
		t.Error("Bytes not positive")
	}
}

func TestLogDensityMatchesClosedForm(t *testing.T) {
	// Standard normal in 2-d: logN(0) = -log(2*pi).
	p := &Params{K: 1, D: 2, Pi: linalg.Vec{1}, Mu: []linalg.Vec{{0, 0}}, Sigma: []*linalg.Mat{linalg.Eye(2)}}
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	want := -math.Log(2 * math.Pi)
	if got := p.LogDensity(0, linalg.Vec{0, 0}); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogDensity(0) = %v, want %v", got, want)
	}
	// At x=(1,0): subtract 1/2.
	if got := p.LogDensity(0, linalg.Vec{1, 0}); math.Abs(got-(want-0.5)) > 1e-12 {
		t.Errorf("LogDensity(1,0) = %v, want %v", got, want-0.5)
	}
}

func TestSampleMembershipPrefersNearCluster(t *testing.T) {
	rng := randgen.New(2)
	p := &Params{
		K: 2, D: 1,
		Pi:    linalg.Vec{0.5, 0.5},
		Mu:    []linalg.Vec{{-10}, {10}},
		Sigma: []*linalg.Mat{linalg.Eye(1), linalg.Eye(1)},
	}
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if k := p.SampleMembership(rng, linalg.Vec{-9.5}); k != 0 {
			t.Fatalf("point near cluster 0 assigned to %d", k)
		}
	}
}

// refLogDensity and refSampleMembership are the allocating kernels the
// cached ones replaced, kept as the bit-exact reference: a fresh
// residual and solve per cluster, and log pi_k and log 2pi per call.
func refLogDensity(p *Params, k int, x linalg.Vec) float64 {
	diff := x.Sub(p.Mu[k])
	sol := linalg.SolveLower(p.chol[k], diff)
	quad := sol.Dot(sol)
	return -0.5 * (float64(p.D)*math.Log(2*math.Pi) + linalg.CholLogDet(p.chol[k]) + quad)
}

func refSampleMembership(p *Params, rng *randgen.RNG, x linalg.Vec) int {
	logs := make([]float64, p.K)
	max := math.Inf(-1)
	for k := 0; k < p.K; k++ {
		logs[k] = math.Log(p.Pi[k]) + refLogDensity(p, k, x)
		if logs[k] > max {
			max = logs[k]
		}
	}
	w := make([]float64, p.K)
	for k := range w {
		w[k] = math.Exp(logs[k] - max)
	}
	return rng.Categorical(w)
}

// The cached kernel must reproduce the reference bit for bit: every
// log-density by Float64bits, every membership draw and the RNG state
// after them under equal seeds, and the log-likelihood. D=130 takes
// SampleMembership's heap fallback (K+D > 128).
func TestKernelMatchesReference(t *testing.T) {
	for _, k := range []int{1, 3, 10} {
		for _, d := range []int{1, 10, 100, 130} {
			rng := randgen.New(uint64(100*k + d))
			mean, variance := make(linalg.Vec, d), make(linalg.Vec, d)
			for i := range variance {
				variance[i] = 1 + float64(i%4)
			}
			p, err := Init(rng, HyperFromMoments(k, mean, variance))
			if err != nil {
				t.Fatal(err)
			}
			p.Pi = rng.Dirichlet(p.Pi)
			if err := p.Prepare(); err != nil {
				t.Fatal(err)
			}
			// Points midway between two clusters, so most draws are not foregone.
			xs := make([]linalg.Vec, 50)
			for i := range xs {
				a, b := p.Mu[rng.Intn(k)], p.Mu[rng.Intn(k)]
				x := make(linalg.Vec, d)
				for j := range x {
					x[j] = (a[j]+b[j])/2 + rng.Normal(0, 0.5)
				}
				xs[i] = x
			}
			got, want := randgen.New(7), randgen.New(7)
			var refLL float64
			for i, x := range xs {
				logs := make([]float64, k)
				max := math.Inf(-1)
				for c := 0; c < k; c++ {
					ld, ref := p.LogDensity(c, x), refLogDensity(p, c, x)
					if math.Float64bits(ld) != math.Float64bits(ref) {
						t.Fatalf("K=%d D=%d: LogDensity(%d, x%d) = %v, reference %v", k, d, c, i, ld, ref)
					}
					logs[c] = math.Log(p.Pi[c]) + ref
					max = math.Max(max, logs[c])
				}
				var sum float64
				for _, l := range logs {
					sum += math.Exp(l - max)
				}
				refLL += max + math.Log(sum)
				if g, w := p.SampleMembership(got, x), refSampleMembership(p, want, x); g != w {
					t.Fatalf("K=%d D=%d: point %d drew %d, reference %d", k, d, i, g, w)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("K=%d D=%d: RNG streams diverged", k, d)
			}
			if ll := p.LogLikelihood(xs); math.Float64bits(ll) != math.Float64bits(refLL) {
				t.Fatalf("K=%d D=%d: LogLikelihood = %v, reference %v", k, d, ll, refLL)
			}
		}
	}
}

func TestStatsAddMerge(t *testing.T) {
	a := NewStats(2, 2)
	b := NewStats(2, 2)
	a.Add(0, linalg.Vec{1, 2}, 1)
	b.Add(0, linalg.Vec{3, 4}, 1)
	b.Add(1, linalg.Vec{5, 6}, 2)
	a.Merge(b)
	if a.N[0] != 2 || a.N[1] != 2 {
		t.Errorf("N = %v", a.N)
	}
	if a.Sum[0][0] != 4 || a.Sum[1][1] != 12 {
		t.Errorf("Sum = %v", a.Sum)
	}
	// SumSq[0] = [1,2][1,2]^T + [3,4][3,4]^T: (0,0) entry 1+9=10.
	if a.SumSq[0].At(0, 0) != 10 {
		t.Errorf("SumSq[0] = %v", a.SumSq[0].Data)
	}
}

func TestScatterAboutMatchesDirect(t *testing.T) {
	xs := []linalg.Vec{{1, 2}, {3, -1}, {0, 0.5}}
	mu := linalg.Vec{0.5, 0.25}
	s := NewStats(1, 2)
	for _, x := range xs {
		s.Add(0, x, 1)
	}
	got := s.scatterAbout(0, mu)
	want := linalg.NewMat(2, 2)
	for _, x := range xs {
		d := x.Sub(mu)
		want.AddOuter(1, d, d)
	}
	if diff := got.MaxAbsDiff(want); diff > 1e-10 {
		t.Errorf("scatter differs by %v", diff)
	}
}

func TestGibbsRecoversPlantedClusters(t *testing.T) {
	rng := randgen.New(7)
	data := workload.GenGMM(rng, workload.GMMConfig{N: 600, D: 2, K: 3, Separation: 12})
	mean, variance := workload.Moments(data.Points)
	h := HyperFromMoments(3, mean, variance)
	p, err := Init(rng, h)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 25; iter++ {
		stats := NewStats(3, 2)
		for _, x := range data.Points {
			stats.Add(p.SampleMembership(rng, x), x, 1)
		}
		if err := UpdateParams(rng, h, p, stats); err != nil {
			t.Fatal(err)
		}
	}
	// Every planted mean should be within 1.0 of some learned mean.
	for _, truth := range data.Mu {
		best := math.Inf(1)
		for _, mu := range p.Mu {
			if d := truth.Sub(mu).Norm2(); d < best {
				best = d
			}
		}
		if best > 1.0 {
			t.Errorf("planted mean %v not recovered (nearest %v away)", truth, best)
		}
	}
}

func TestUpdateParamsConcentratesWithData(t *testing.T) {
	// With many points at a single location, the posterior mean must land
	// there regardless of the prior.
	rng := randgen.New(3)
	h := HyperFromMoments(1, linalg.Vec{0, 0}, linalg.Vec{1, 1})
	p, err := Init(rng, h)
	if err != nil {
		t.Fatal(err)
	}
	target := linalg.Vec{5, -3}
	stats := NewStats(1, 2)
	for i := 0; i < 20000; i++ {
		jitter := linalg.Vec{target[0] + rng.Normal(0, 0.1), target[1] + rng.Normal(0, 0.1)}
		stats.Add(0, jitter, 1)
	}
	if err := UpdateParams(rng, h, p, stats); err != nil {
		t.Fatal(err)
	}
	if d := p.Mu[0].Sub(target).Norm2(); d > 0.1 {
		t.Errorf("posterior mean %v too far from %v (%v)", p.Mu[0], target, d)
	}
	if p.Sigma[0].At(0, 0) > 0.05 {
		t.Errorf("posterior covariance too wide: %v", p.Sigma[0].Data)
	}
}

func TestLogLikelihoodImprovesOverIterations(t *testing.T) {
	rng := randgen.New(11)
	data := workload.GenGMM(rng, workload.GMMConfig{N: 300, D: 2, K: 2, Separation: 10})
	mean, variance := workload.Moments(data.Points)
	h := HyperFromMoments(2, mean, variance)
	p, err := Init(rng, h)
	if err != nil {
		t.Fatal(err)
	}
	first := p.LogLikelihood(data.Points)
	for iter := 0; iter < 15; iter++ {
		stats := NewStats(2, 2)
		for _, x := range data.Points {
			stats.Add(p.SampleMembership(rng, x), x, 1)
		}
		if err := UpdateParams(rng, h, p, stats); err != nil {
			t.Fatal(err)
		}
	}
	last := p.LogLikelihood(data.Points)
	if last <= first {
		t.Errorf("log-likelihood did not improve: %v -> %v", first, last)
	}
}

func TestFlopsEstimatesPositive(t *testing.T) {
	if MembershipFlops(10, 10) <= 0 || UpdateFlops(10, 10) <= 0 {
		t.Error("flop estimates must be positive")
	}
	if MembershipFlops(10, 100) <= MembershipFlops(10, 10) {
		t.Error("flops should grow with dimension")
	}
}

// Property: merging statistics in any grouping yields identical totals
// (the distributed-aggregation correctness requirement).
func TestQuickStatsMergeAssociative(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]linalg.Vec, 0, len(raw))
		ks := make([]int, 0, len(raw))
		for i, r := range raw {
			xs = append(xs, linalg.Vec{float64(r), float64(i % 5)})
			ks = append(ks, int(r)%3)
		}
		// All at once.
		all := NewStats(3, 2)
		for i := range xs {
			all.Add(ks[i], xs[i], 1)
		}
		// Split in two and merge.
		a, b := NewStats(3, 2), NewStats(3, 2)
		for i := range xs {
			if i%2 == 0 {
				a.Add(ks[i], xs[i], 1)
			} else {
				b.Add(ks[i], xs[i], 1)
			}
		}
		a.Merge(b)
		for k := 0; k < 3; k++ {
			if math.Abs(all.N[k]-a.N[k]) > 1e-9 {
				return false
			}
			if all.Sum[k].Sub(a.Sum[k]).Norm2() > 1e-9 {
				return false
			}
			if all.SumSq[k].MaxAbsDiff(a.SumSq[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
