package lasso

import (
	"math"
	"testing"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
	"mlbench/internal/workload"
)

// gram computes X^T X and X^T y directly.
func gram(data *workload.RegressionData) (*linalg.Mat, linalg.Vec) {
	p := len(data.X[0])
	xtx := linalg.NewMat(p, p)
	xty := linalg.NewVec(p)
	for i, x := range data.X {
		xtx.AddOuter(1, x, x)
		for j := range x {
			xty[j] += x[j] * data.Y[i]
		}
	}
	return xtx, xty
}

// genData draws a sparse coefficient vector with the given number of
// non-zero entries, then n observations around it.
func genData(rng *randgen.RNG, n, p, sparsity int, noise float64) *workload.RegressionData {
	return workload.GenRegression(rng, workload.SparseBeta(rng, p, sparsity), n, workload.RegressionConfig{Noise: noise})
}

func sse(data *workload.RegressionData, beta linalg.Vec) float64 {
	var s float64
	for i, x := range data.X {
		r := data.Y[i] - x.Dot(beta)
		s += r * r
	}
	return s
}

func TestInitState(t *testing.T) {
	s := Init(5)
	if len(s.Beta) != 5 || len(s.InvTau2) != 5 {
		t.Fatalf("shapes wrong: %+v", s)
	}
	if s.Sigma2 != 1 || s.InvTau2[3] != 1 {
		t.Errorf("defaults wrong: %+v", s)
	}
}

func TestSampleInvTau2Positive(t *testing.T) {
	rng := randgen.New(1)
	s := Init(4)
	s.Beta = linalg.Vec{0, 1e-8, 1, -5}
	SampleInvTau2(rng, Hyper{Lambda: 1, P: 4}, s)
	for j, v := range s.InvTau2 {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("InvTau2[%d] = %v", j, v)
		}
	}
}

func TestLargerBetaGetsSmallerShrinkage(t *testing.T) {
	// 1/tau^2 has mean sqrt(lambda^2 sigma^2 / beta^2): large |beta| =>
	// small 1/tau^2 (less shrinkage).
	rng := randgen.New(2)
	h := Hyper{Lambda: 2, P: 2}
	var smallSum, largeSum float64
	for i := 0; i < 3000; i++ {
		s := Init(2)
		s.Beta = linalg.Vec{0.1, 10}
		SampleInvTau2(rng, h, s)
		smallSum += s.InvTau2[0]
		largeSum += s.InvTau2[1]
	}
	if largeSum >= smallSum {
		t.Errorf("shrinkage ordering wrong: small-beta mean %v, large-beta mean %v", smallSum/3000, largeSum/3000)
	}
}

func TestSampleBetaPosteriorMean(t *testing.T) {
	// With tiny noise and lots of data, beta should land on the ordinary
	// least squares solution.
	rng := randgen.New(3)
	data := genData(rng, 5000, 4, 2, 0.01)
	xtx, xty := gram(data)
	s := Init(4)
	s.Sigma2 = 0.0001
	if err := SampleBeta(rng, s, xtx, xty); err != nil {
		t.Fatal(err)
	}
	for j := range s.Beta {
		if math.Abs(s.Beta[j]-data.TrueBeta[j]) > 0.05 {
			t.Errorf("beta[%d] = %v, want %v", j, s.Beta[j], data.TrueBeta[j])
		}
	}
}

func TestSampleSigma2Scale(t *testing.T) {
	rng := randgen.New(4)
	s := Init(2)
	s.Beta = linalg.Vec{0, 0}
	// sse = 100 over n = 100 points: sigma^2 should hover near 1.
	var sum float64
	const iters = 3000
	for i := 0; i < iters; i++ {
		SampleSigma2(rng, s, 100, 100)
		sum += s.Sigma2
	}
	if got := sum / iters; math.Abs(got-1) > 0.1 {
		t.Errorf("mean sigma2 = %v, want ~1", got)
	}
}

func TestFullChainRecoversSparseBeta(t *testing.T) {
	rng := randgen.New(5)
	const p = 10
	data := genData(rng, 2000, p, 3, 0.5)
	xtx, xty := gram(data)
	h := Hyper{Lambda: 1, P: p}
	s := Init(p)
	for iter := 0; iter < 50; iter++ {
		SampleInvTau2(rng, h, s)
		if err := SampleBeta(rng, s, xtx, xty); err != nil {
			t.Fatal(err)
		}
		SampleSigma2(rng, s, float64(len(data.X)), sse(data, s.Beta))
	}
	for j := range s.Beta {
		if math.Abs(s.Beta[j]-data.TrueBeta[j]) > 0.25 {
			t.Errorf("beta[%d] = %v, want %v", j, s.Beta[j], data.TrueBeta[j])
		}
	}
	if s.Sigma2 < 0.1 || s.Sigma2 > 0.6 {
		t.Errorf("sigma2 = %v, want near 0.25", s.Sigma2)
	}
}

func TestShrinkageGrowsWithLambda(t *testing.T) {
	// With an enormous lambda, coefficients of noise-only regressors
	// should be shrunk much harder than with a tiny lambda.
	run := func(lambda float64) float64 {
		rng := randgen.New(6)
		data := genData(rng, 50, 20, 1, 3)
		xtx, xty := gram(data)
		h := Hyper{Lambda: lambda, P: 20}
		s := Init(20)
		var norm float64
		for iter := 0; iter < 40; iter++ {
			SampleInvTau2(rng, h, s)
			if err := SampleBeta(rng, s, xtx, xty); err != nil {
				t.Fatal(err)
			}
			SampleSigma2(rng, s, 50, sse(data, s.Beta))
			if iter >= 20 {
				norm += s.Beta.Norm2()
			}
		}
		return norm / 20
	}
	small, large := run(0.1), run(50)
	if large >= small {
		t.Errorf("lambda=50 posterior norm (%v) should be below lambda=0.1 (%v)", large, small)
	}
}

// TestSampleBetaWhitenedGoF certifies the precision-form draw against its
// target Normal(A^{-1} X^T y, sigma^2 A^{-1}): with A = L L^T, every draw
// whitened as z = L^T (beta - mu) / sigma must be N(0, I). Drawing the
// deviation as L^{-1} z instead of L^{-T} z fails this test.
func TestSampleBetaWhitenedGoF(t *testing.T) {
	const (
		p      = 4
		n      = 4000
		sigma2 = 2.5
	)
	// Precision A = xtx + diag(invTau2), strongly non-diagonal.
	xtx := linalg.NewMat(p, p)
	xtx.AddOuter(1, linalg.Vec{2, 1, -1, 0.5}, linalg.Vec{2, 1, -1, 0.5})
	xtx.AddOuter(1, linalg.Vec{0, 1.5, 1, -2}, linalg.Vec{0, 1.5, 1, -2})
	xtx.AddOuter(1, linalg.Vec{1, -1, 2, 1}, linalg.Vec{1, -1, 2, 1})
	invTau2 := linalg.Vec{0.3, 0.5, 0.2, 0.4}
	xty := linalg.Vec{1, -2, 0.5, 3}
	a := xtx.Clone()
	for j := range invTau2 {
		a.Set(j, j, a.At(j, j)+invTau2[j])
	}
	l, err := linalg.Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	mu := linalg.CholSolve(l, xty)
	sigma := math.Sqrt(sigma2)

	rng := randgen.New(29)
	s := Init(p)
	z := make([][]float64, p)
	for j := range z {
		z[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		copy(s.InvTau2, invTau2)
		s.Sigma2 = sigma2
		if err := SampleBeta(rng, s, xtx, xty); err != nil {
			t.Fatal(err)
		}
		d := s.Beta.Sub(mu)
		for j := 0; j < p; j++ { // (L^T d)_j = sum_{k>=j} L[k][j] d[k]
			var w float64
			for k := j; k < p; k++ {
				w += l.At(k, j) * d[k]
			}
			z[j][i] = w / sigma
		}
	}
	stdNormCDF := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	for j := range z {
		if d := randgen.KSStat(z[j], stdNormCDF); d > randgen.KSCritical(n) {
			t.Errorf("whitened component %d: KS D = %.4f > %.4f", j, d, randgen.KSCritical(n))
		}
	}
	for j := 0; j < p; j++ {
		for k := j + 1; k < p; k++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += z[j][i] * z[k][i]
			}
			if r := dot / n; math.Abs(r) > 0.06 {
				t.Errorf("whitened components %d,%d correlated: r = %.4f", j, k, r)
			}
		}
	}
}

func TestFlopsEstimates(t *testing.T) {
	if BetaFlops(10) <= 0 || GramFlops(10) != 100 {
		t.Errorf("flop estimates wrong: %v %v", BetaFlops(10), GramFlops(10))
	}
}

func TestCholeskyJitteredRecoversRankDeficient(t *testing.T) {
	// A rank-1 "covariance" that plain Cholesky rejects must factor after
	// jittering.
	m := linalg.NewMat(3, 3)
	m.AddOuter(1, linalg.Vec{1, 2, 3}, linalg.Vec{1, 2, 3})
	if _, err := linalg.Cholesky(m); err == nil {
		t.Skip("rank-deficient matrix unexpectedly factored directly")
	}
	l, err := choleskyJittered(m)
	if err != nil {
		t.Fatalf("jittered factorization failed: %v", err)
	}
	if l == nil {
		t.Fatal("nil factor")
	}
}

func TestCholeskyJitteredGivesUpOnGarbage(t *testing.T) {
	// A matrix with a hugely negative eigenvalue cannot be rescued by
	// small jitter.
	m := linalg.Diag(linalg.Vec{1, -1e9})
	if _, err := choleskyJittered(m); err == nil {
		t.Fatal("expected failure for strongly indefinite matrix")
	}
}

func TestSampleBetaWithRankDeficientGram(t *testing.T) {
	// Fewer observations than regressors: the auxiliaries regularize the
	// draw and it must still succeed.
	rng := randgen.New(12)
	data := genData(rng, 3, 10, 2, 1)
	xtx, xty := gram(data)
	xtx.ScaleInPlace(1e9) // extreme conditioning, as high scale factors produce
	xty.ScaleInPlace(1e9)
	s := Init(10)
	if err := SampleBeta(rng, s, xtx, xty); err != nil {
		t.Fatalf("SampleBeta on rank-deficient Gram: %v", err)
	}
}
