package randgen

import (
	"math"
	"testing"
	"testing/quick"

	"mlbench/internal/linalg"
)

func TestGammaMoments(t *testing.T) {
	cases := []struct{ shape, rate float64 }{
		{0.5, 1}, {1, 2}, {2, 0.5}, {9, 3}, {30, 1},
	}
	r := New(21)
	for _, c := range cases {
		mean, v := moments(150000, func() float64 { return r.Gamma(c.shape, c.rate) })
		wantMean := c.shape / c.rate
		wantVar := c.shape / (c.rate * c.rate)
		if math.Abs(mean-wantMean) > 0.03*wantMean+0.01 {
			t.Errorf("Gamma(%v,%v) mean = %v, want %v", c.shape, c.rate, mean, wantMean)
		}
		if math.Abs(v-wantVar) > 0.1*wantVar+0.02 {
			t.Errorf("Gamma(%v,%v) var = %v, want %v", c.shape, c.rate, v, wantVar)
		}
	}
}

func TestGammaPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Gamma(0, 1)
}

func TestInvGammaMean(t *testing.T) {
	r := New(22)
	// InvGamma(shape=5, scale=8) has mean 8/4 = 2.
	mean, _ := moments(150000, func() float64 { return r.InvGamma(5, 8) })
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("InvGamma mean = %v, want 2", mean)
	}
}

func TestChiSquaredMoments(t *testing.T) {
	r := New(23)
	mean, v := moments(100000, func() float64 { return r.ChiSquared(7) })
	if math.Abs(mean-7) > 0.1 {
		t.Errorf("ChiSquared mean = %v, want 7", mean)
	}
	if math.Abs(v-14) > 0.5 {
		t.Errorf("ChiSquared var = %v, want 14", v)
	}
}

func TestBetaMoments(t *testing.T) {
	r := New(24)
	a, b := 2.0, 5.0
	mean, v := moments(150000, func() float64 { return r.Beta(a, b) })
	wantMean := a / (a + b)
	wantVar := a * b / ((a + b) * (a + b) * (a + b + 1))
	if math.Abs(mean-wantMean) > 0.005 {
		t.Errorf("Beta mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(v-wantVar) > 0.002 {
		t.Errorf("Beta var = %v, want %v", v, wantVar)
	}
}

func TestDirichletSimplexAndMean(t *testing.T) {
	r := New(25)
	alpha := []float64{1, 2, 7}
	sums := make([]float64, 3)
	const n = 50000
	for i := 0; i < n; i++ {
		d := r.Dirichlet(alpha)
		var total float64
		for k, x := range d {
			if x < 0 {
				t.Fatalf("negative Dirichlet component %v", x)
			}
			sums[k] += x
			total += x
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("Dirichlet draw sums to %v", total)
		}
	}
	for k, want := range []float64{0.1, 0.2, 0.7} {
		if got := sums[k] / n; math.Abs(got-want) > 0.01 {
			t.Errorf("Dirichlet mean[%d] = %v, want %v", k, got, want)
		}
	}
}

func TestDirichletPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Dirichlet(nil)
}

func TestCategoricalFrequencies(t *testing.T) {
	r := New(26)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category drawn %d times", counts[1])
	}
	if got := float64(counts[0]) / n; math.Abs(got-0.25) > 0.01 {
		t.Errorf("category 0 freq = %v, want 0.25", got)
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, w := range [][]float64{{0, 0}, {1, -1}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for weights %v", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestInvGaussianMoments(t *testing.T) {
	r := New(28)
	mu, lambda := 2.0, 6.0
	mean, v := moments(200000, func() float64 { return r.InvGaussian(mu, lambda) })
	wantVar := mu * mu * mu / lambda
	if math.Abs(mean-mu) > 0.03 {
		t.Errorf("InvGaussian mean = %v, want %v", mean, mu)
	}
	if math.Abs(v-wantVar) > 0.1*wantVar {
		t.Errorf("InvGaussian var = %v, want %v", v, wantVar)
	}
}

func TestInvGaussianPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).InvGaussian(-1, 1)
}

func TestMVNormalMomentsAndCovariance(t *testing.T) {
	r := New(29)
	mu := linalg.Vec{1, -2}
	cov := &linalg.Mat{Rows: 2, Cols: 2, Data: []float64{2, 0.8, 0.8, 1}}
	const n = 100000
	sum := linalg.NewVec(2)
	cross := linalg.NewMat(2, 2)
	for i := 0; i < n; i++ {
		x, err := r.MVNormal(mu, cov)
		if err != nil {
			t.Fatal(err)
		}
		x.AddTo(sum)
		cross.AddOuter(1, x, x)
	}
	mean := sum.Scale(1.0 / n)
	for i := range mu {
		if math.Abs(mean[i]-mu[i]) > 0.02 {
			t.Errorf("MVN mean[%d] = %v, want %v", i, mean[i], mu[i])
		}
	}
	cross.ScaleInPlace(1.0 / n)
	cross.AddOuter(-1, mean, mean)
	if d := cross.MaxAbsDiff(cov); d > 0.05 {
		t.Errorf("MVN sample covariance off by %v", d)
	}
}

func TestMVNormalRejectsBadCovariance(t *testing.T) {
	bad := &linalg.Mat{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 1}}
	if _, err := New(1).MVNormal(linalg.Vec{0, 0}, bad); err == nil {
		t.Fatal("expected error for indefinite covariance")
	}
}

func TestWishartMean(t *testing.T) {
	r := New(30)
	scale := &linalg.Mat{Rows: 2, Cols: 2, Data: []float64{1, 0.3, 0.3, 2}}
	df := 8.0
	acc := linalg.NewMat(2, 2)
	const n = 20000
	for i := 0; i < n; i++ {
		w, err := r.Wishart(df, scale)
		if err != nil {
			t.Fatal(err)
		}
		acc.AddInPlace(w)
	}
	acc.ScaleInPlace(1.0 / n)
	want := scale.Clone().ScaleInPlace(df)
	if d := acc.MaxAbsDiff(want); d > 0.15 {
		t.Errorf("Wishart mean off by %v (got %v want %v)", d, acc.Data, want.Data)
	}
}

func TestWishartRejectsLowDF(t *testing.T) {
	if _, err := New(1).Wishart(1, linalg.Eye(3)); err == nil {
		t.Fatal("expected error for df < dim")
	}
}

func TestInvWishartMean(t *testing.T) {
	r := New(31)
	psi := &linalg.Mat{Rows: 2, Cols: 2, Data: []float64{2, 0.5, 0.5, 1}}
	df := 10.0 // mean = psi / (df - p - 1) = psi / 7
	acc := linalg.NewMat(2, 2)
	const n = 20000
	for i := 0; i < n; i++ {
		w, err := r.InvWishart(df, psi)
		if err != nil {
			t.Fatal(err)
		}
		acc.AddInPlace(w)
	}
	acc.ScaleInPlace(1.0 / n)
	want := psi.Clone().ScaleInPlace(1.0 / 7.0)
	if d := acc.MaxAbsDiff(want); d > 0.02 {
		t.Errorf("InvWishart mean off by %v (got %v want %v)", d, acc.Data, want.Data)
	}
}

// Property: Dirichlet draws always lie on the probability simplex for any
// positive alpha.
func TestQuickDirichletSimplex(t *testing.T) {
	r := New(99)
	f := func(a0, a1, a2 float64) bool {
		alpha := []float64{qpos(a0), qpos(a1), qpos(a2)}
		d := r.Dirichlet(alpha)
		var s float64
		for _, x := range d {
			if x < 0 || x > 1 {
				return false
			}
			s += x
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Gamma draws are non-negative and finite for any valid
// parameters (tiny shapes may underflow to exactly zero), and strictly
// positive once the shape is not extreme.
func TestQuickGammaPositive(t *testing.T) {
	r := New(98)
	f := func(shape, rate float64) bool {
		s, ra := qpos(shape), qpos(rate)
		g := r.Gamma(s, ra)
		if math.IsNaN(g) || math.IsInf(g, 0) || g < 0 {
			return false
		}
		if s >= 0.5 && g == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Categorical only returns indices with positive weight.
func TestQuickCategoricalSupport(t *testing.T) {
	r := New(97)
	f := func(w0, w1, w2, w3 float64) bool {
		w := []float64{qpos(w0), 0, qpos(w2), 0}
		i := r.Categorical(w)
		return w[i] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: InvGaussian draws are strictly positive.
func TestQuickInvGaussianPositive(t *testing.T) {
	r := New(96)
	f := func(mu, lambda float64) bool {
		return r.InvGaussian(qpos(mu), qpos(lambda)) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// qpos maps an arbitrary float into a positive, moderate range.
func qpos(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	v := math.Abs(math.Mod(x, 50))
	if v < 1e-3 {
		return 1e-3
	}
	return v
}

func TestPoissonMoments(t *testing.T) {
	r := New(32)
	for _, lambda := range []float64{0.5, 4, 25, 80} {
		mean, v := moments(60000, func() float64 { return float64(r.Poisson(lambda)) })
		if math.Abs(mean-lambda) > 0.05*lambda+0.02 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
		if math.Abs(v-lambda) > 0.1*lambda+0.05 {
			t.Errorf("Poisson(%v) var = %v", lambda, v)
		}
	}
}

func TestPoissonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Poisson(0)
}
