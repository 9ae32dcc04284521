package impute

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

func TestPartition(t *testing.T) {
	c, o := Partition([]bool{true, false, false, true})
	if len(c) != 2 || c[0] != 0 || c[1] != 3 {
		t.Errorf("censored = %v", c)
	}
	if len(o) != 2 || o[0] != 1 || o[1] != 2 {
		t.Errorf("observed = %v", o)
	}
}

func TestConditionalBivariate(t *testing.T) {
	// Classic bivariate normal: x1|x2 ~ N(mu1 + rho*s1/s2*(x2-mu2),
	// s1^2(1-rho^2)). Take mu=(1,2), s1=2, s2=1, rho=0.5, x2=3.
	mu := linalg.Vec{1, 2}
	sigma := &linalg.Mat{Rows: 2, Cols: 2, Data: []float64{4, 1, 1, 1}}
	censored, observed := []int{0}, []int{1}
	l22, err := linalg.Cholesky(block(sigma, observed, observed))
	if err != nil {
		t.Fatal(err)
	}
	s12, sigC := condCov(sigma, censored, observed, l22)
	muC := make(linalg.Vec, 1)
	condMean(muC, mu, censored, s12, l22, linalg.Vec{3 - mu[1]})
	wantMean := 1 + (1.0/1.0)*(3-2) // mu1 + S12 S22^{-1} (x2-mu2) = 1+1 = 2
	if math.Abs(muC[0]-wantMean) > 1e-12 {
		t.Errorf("conditional mean = %v, want %v", muC[0], wantMean)
	}
	wantVar := 4 - 1*1.0 // S11 - S12 S22^{-1} S21 = 3
	if math.Abs(sigC.At(0, 0)-wantVar) > 1e-9 {
		t.Errorf("conditional var = %v, want %v", sigC.At(0, 0), wantVar)
	}
}

// With nothing observed the conditional is the marginal: the draw is
// exactly what MVNormal(mu, sigma) draws from the same stream.
func TestConditionalNothingObserved(t *testing.T) {
	mu := linalg.Vec{1, 2}
	sigma := &linalg.Mat{Rows: 2, Cols: 2, Data: []float64{2, 0.5, 0.5, 1}}
	x := linalg.Vec{0, 0}
	if err := SampleMissing(randgen.New(4), x, []bool{true, true}, mu, sigma); err != nil {
		t.Fatal(err)
	}
	want, err := randgen.New(4).MVNormal(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			t.Fatalf("marginal draw = %v, want %v", x, want)
		}
	}
}

func TestSampleMissingFullyObservedNoop(t *testing.T) {
	rng := randgen.New(1)
	x := linalg.Vec{1, 2}
	if err := SampleMissing(rng, x, []bool{false, false}, linalg.Vec{0, 0}, linalg.Eye(2)); err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[1] != 2 {
		t.Errorf("fully observed point was modified: %v", x)
	}
}

func TestSampleMissingUsesCorrelation(t *testing.T) {
	// Strong positive correlation: when x2 is far above its mean, drawn
	// x1 should also be above its mean on average.
	rng := randgen.New(2)
	mu := linalg.Vec{0, 0}
	sigma := &linalg.Mat{Rows: 2, Cols: 2, Data: []float64{1, 0.9, 0.9, 1}}
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		x := linalg.Vec{0, 3}
		if err := SampleMissing(rng, x, []bool{true, false}, mu, sigma); err != nil {
			t.Fatal(err)
		}
		sum += x[0]
	}
	if got := sum / n; math.Abs(got-2.7) > 0.1 { // 0.9 * 3
		t.Errorf("conditional mean of draws = %v, want ~2.7", got)
	}
}

func TestSampleMissingReducesError(t *testing.T) {
	// Imputing from the true generating Gaussian should beat mean
	// imputation in mean squared error.
	rng := randgen.New(3)
	mu := linalg.Vec{0, 0, 0}
	sigma := &linalg.Mat{Rows: 3, Cols: 3, Data: []float64{
		1, 0.8, 0.8,
		0.8, 1, 0.8,
		0.8, 0.8, 1,
	}}
	l, err := linalg.Cholesky(sigma)
	if err != nil {
		t.Fatal(err)
	}
	var impErr, meanErr float64
	const n = 3000
	for i := 0; i < n; i++ {
		truth := rng.MVNormalChol(mu, l)
		x := truth.Clone()
		x[0] = 0
		if err := SampleMissing(rng, x, []bool{true, false, false}, mu, sigma); err != nil {
			t.Fatal(err)
		}
		impErr += (x[0] - truth[0]) * (x[0] - truth[0])
		meanErr += truth[0] * truth[0] // mean imputation predicts 0
	}
	if impErr >= meanErr*0.6 {
		t.Errorf("imputation MSE %v not clearly better than mean imputation %v", impErr/n, meanErr/n)
	}
}

// Property: conditional covariance is symmetric and has non-negative
// diagonal for random SPD matrices and random masks.
func TestQuickConditionalValid(t *testing.T) {
	f := func(seed uint64, maskBits uint8) bool {
		rng := randgen.New(seed)
		const d = 4
		// Random SPD sigma.
		b := linalg.NewMat(d, d)
		for i := range b.Data {
			b.Data[i] = rng.Norm()
		}
		sigma := b.MulMat(b.T())
		for i := 0; i < d; i++ {
			sigma.Set(i, i, sigma.At(i, i)+float64(d))
		}
		missing := make([]bool, d)
		any := false
		for i := 0; i < d; i++ {
			missing[i] = maskBits&(1<<i) != 0
			any = any || missing[i]
		}
		if !any {
			return true
		}
		cen, obs := Partition(missing)
		if len(obs) == 0 {
			return true // the marginal: sigma itself
		}
		l22, err := linalg.Cholesky(block(sigma, obs, obs))
		if err != nil {
			return false
		}
		_, sigC := condCov(sigma, cen, obs, l22)
		for i := 0; i < sigC.Rows; i++ {
			if sigC.At(i, i) < 0 {
				return false
			}
			for j := 0; j < sigC.Cols; j++ {
				if math.Abs(sigC.At(i, j)-sigC.At(j, i)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFlopsPositive(t *testing.T) {
	if Flops(10) <= 0 {
		t.Error("Flops must be positive")
	}
}

func TestPlanMembershipPrefersMatchingCluster(t *testing.T) {
	rng := randgen.New(9)
	plan, err := NewPlan([]float64{0.5, 0.5}, []linalg.Vec{{-10, -10}, {10, 10}}, []*linalg.Mat{linalg.Eye(2), linalg.Eye(2)})
	if err != nil {
		t.Fatal(err)
	}
	// Only dimension 0 is observed, near cluster 1's mean.
	missing := []bool{false, true}
	for i := 0; i < 50; i++ {
		c := -1
		if err := plan.Impute(rng, linalg.Vec{9.5, 0}, missing, &c); err != nil {
			t.Fatal(err)
		}
		if c != 1 {
			t.Fatalf("observed-marginal membership = %d, want 1", c)
		}
	}
}

func TestPlanMembershipFullyCensoredUsesPrior(t *testing.T) {
	rng := randgen.New(10)
	plan, err := NewPlan([]float64{0.999, 0.001}, []linalg.Vec{{0}, {100}}, []*linalg.Mat{linalg.Eye(1), linalg.Eye(1)})
	if err != nil {
		t.Fatal(err)
	}
	counts := [2]int{}
	for i := 0; i < 500; i++ {
		c := -1
		if err := plan.Impute(rng, linalg.Vec{0}, []bool{true}, &c); err != nil {
			t.Fatal(err)
		}
		counts[c]++
	}
	if counts[0] < 480 {
		t.Errorf("fully censored point should follow the prior: %v", counts)
	}
}

func TestPlanRejectsBadCovariance(t *testing.T) {
	bad := &linalg.Mat{Rows: 1, Cols: 1, Data: []float64{-1}}
	plan, err := NewPlan([]float64{1}, []linalg.Vec{{0}}, []*linalg.Mat{bad})
	if err != nil {
		t.Fatal(err)
	}
	c := -1
	if err := plan.Impute(randgen.New(11), linalg.Vec{0}, []bool{false}, &c); !errors.Is(err, linalg.ErrNotSPD) {
		t.Fatalf("Impute with an indefinite covariance: %v, want ErrNotSPD", err)
	}
	if c != -1 {
		t.Errorf("failed membership draw stored cluster %d", c)
	}
}

// A mask packs into a uint64, so a plan is limited to 64 dimensions;
// SampleMissing, which keys nothing, is not.
func TestPlanDimensionLimit(t *testing.T) {
	wide := make(linalg.Vec, maxPlanDim+1)
	if _, err := NewPlan([]float64{1}, []linalg.Vec{wide}, []*linalg.Mat{linalg.Eye(len(wide))}); err == nil {
		t.Errorf("NewPlan accepted dimension %d", len(wide))
	}
	missing := make([]bool, len(wide))
	missing[len(wide)-1] = true
	if err := SampleMissing(randgen.New(1), wide, missing, make(linalg.Vec, len(wide)), linalg.Eye(len(wide))); err != nil {
		t.Errorf("SampleMissing at dimension %d: %v", len(wide), err)
	}
}

// refSampleMembershipObserved, refSampleMissing and refConditional are
// the allocating update Plan replaced, kept as the bit-exact reference:
// every point factors Sigma_k[obs,obs] for every cluster, then factors
// its cluster's block again, inverts it and factors the conditional
// covariance.
func refSampleMembershipObserved(rng *randgen.RNG, pi []float64, mu []linalg.Vec, sigma []*linalg.Mat, x linalg.Vec, missing []bool) (int, error) {
	_, observed := Partition(missing)
	if len(observed) == 0 {
		return rng.Categorical(pi), nil
	}
	o := len(observed)
	xObs := make(linalg.Vec, o)
	for i, oi := range observed {
		xObs[i] = x[oi]
	}
	k := len(pi)
	logs := make([]float64, k)
	max := math.Inf(-1)
	diff := make(linalg.Vec, o)
	for c := 0; c < k; c++ {
		sub := linalg.NewMat(o, o)
		for i, oi := range observed {
			diff[i] = xObs[i] - mu[c][oi]
			for j, oj := range observed {
				sub.Set(i, j, sigma[c].At(oi, oj))
			}
		}
		l, err := linalg.Cholesky(sub)
		if err != nil {
			return 0, fmt.Errorf("impute: observed block of cluster %d: %w", c, err)
		}
		sol := linalg.SolveLower(l, diff)
		logs[c] = math.Log(pi[c]) - 0.5*(float64(o)*math.Log(2*math.Pi)+linalg.CholLogDet(l)+sol.Dot(sol))
		if logs[c] > max {
			max = logs[c]
		}
	}
	w := make([]float64, k)
	for c := range w {
		w[c] = math.Exp(logs[c] - max)
	}
	return rng.Categorical(w), nil
}

func refSampleMissing(rng *randgen.RNG, x linalg.Vec, missing []bool, mu linalg.Vec, sigma *linalg.Mat) error {
	censored, observed := Partition(missing)
	if len(censored) == 0 {
		return nil
	}
	xObs := make(linalg.Vec, len(observed))
	for i, oi := range observed {
		xObs[i] = x[oi]
	}
	muC, sigC, err := refConditional(mu, sigma, censored, observed, xObs)
	if err != nil {
		return err
	}
	draw, err := rng.MVNormal(muC, sigC)
	if err != nil {
		return fmt.Errorf("impute: conditional draw: %w", err)
	}
	for i, ci := range censored {
		x[ci] = draw[i]
	}
	return nil
}

func refConditional(mu linalg.Vec, sigma *linalg.Mat, censored, observed []int, xObs linalg.Vec) (linalg.Vec, *linalg.Mat, error) {
	c, o := len(censored), len(observed)
	if o == 0 {
		muC := make(linalg.Vec, c)
		sigC := linalg.NewMat(c, c)
		for i, ci := range censored {
			muC[i] = mu[ci]
			for j, cj := range censored {
				sigC.Set(i, j, sigma.At(ci, cj))
			}
		}
		return muC, sigC, nil
	}
	s11 := linalg.NewMat(c, c)
	s12 := linalg.NewMat(c, o)
	s22 := linalg.NewMat(o, o)
	for i, ci := range censored {
		for j, cj := range censored {
			s11.Set(i, j, sigma.At(ci, cj))
		}
		for j, oj := range observed {
			s12.Set(i, j, sigma.At(ci, oj))
		}
	}
	for i, oi := range observed {
		for j, oj := range observed {
			s22.Set(i, j, sigma.At(oi, oj))
		}
	}
	l22, err := linalg.Cholesky(s22)
	if err != nil {
		return nil, nil, fmt.Errorf("impute: observed block: %w", err)
	}
	diff := make(linalg.Vec, o)
	for i, oi := range observed {
		diff[i] = xObs[i] - mu[oi]
	}
	sol := linalg.CholSolve(l22, diff)
	muC := make(linalg.Vec, c)
	for i, ci := range censored {
		muC[i] = mu[ci] + s12.Row(i).Dot(sol)
	}
	s22inv := linalg.CholInverse(l22)
	adj := s12.MulMat(s22inv).MulMat(s12.T())
	sigC := s11.Sub(adj).Symmetrize()
	for i := 0; i < c; i++ {
		if sigC.At(i, i) < 1e-9 {
			sigC.Set(i, i, sigC.At(i, i)+1e-9)
		}
	}
	return muC, sigC, nil
}

// refImpute is the blocked update through the reference kernels.
func refImpute(rng *randgen.RNG, pi []float64, mu []linalg.Vec, sigma []*linalg.Mat, x linalg.Vec, missing []bool, c *int) error {
	k, err := refSampleMembershipObserved(rng, pi, mu, sigma, x, missing)
	if err != nil {
		return err
	}
	*c = k
	return refSampleMissing(rng, x, missing, mu[k], sigma[k])
}

// mixture draws K clusters in D dimensions with random SPD covariances
// and uneven weights. When bad is set, cluster 1 (if any) gets a
// negative variance in dimension 0, so every block holding dimension 0
// fails to factor: observed blocks through membership, censored ones
// through the conditional covariance. Cluster 2 (if any) gets dimension
// 2 as an exact copy of dimension 1: blocks holding both are singular,
// and the conditional variance of one given the other is zero up to
// round-off, which the 1e-9 guard lifts.
func mixture(rng *randgen.RNG, k, d int, bad bool) (pi []float64, mu []linalg.Vec, sigma []*linalg.Mat) {
	alpha := make([]float64, k)
	for i := range alpha {
		alpha[i] = 1
	}
	pi = rng.Dirichlet(alpha)
	for c := 0; c < k; c++ {
		m := make(linalg.Vec, d)
		for i := range m {
			m[i] = 3 * rng.Norm()
		}
		b := linalg.NewMat(d, d)
		for i := range b.Data {
			b.Data[i] = rng.Norm()
		}
		s := b.MulMat(b.T())
		for i := 0; i < d; i++ {
			s.Set(i, i, s.At(i, i)+1)
		}
		mu, sigma = append(mu, m), append(sigma, s)
	}
	if bad && k > 1 {
		sigma[1].Set(0, 0, -1)
	}
	if bad && k > 2 {
		s := sigma[2]
		for j := 0; j < d; j++ {
			if j != 2 {
				s.Set(2, j, s.At(1, j))
				s.Set(j, 2, s.At(j, 1))
			}
		}
		s.Set(2, 2, s.At(1, 1))
	}
	return pi, mu, sigma
}

// maskOf unpacks the low d bits of bits into a censoring mask.
func maskOf(bits uint64, d int) []bool {
	missing := make([]bool, d)
	for i := range missing {
		missing[i] = bits&(1<<i) != 0
	}
	return missing
}

// The plan must reproduce the reference update bit for bit: the drawn
// cluster, the Float64bits of every imputed coordinate, the error text
// where a block is not SPD, and the RNG state after each point. Every
// mask at D=6 and a sample at D=10 (including none and all missing) run
// three points each, so each mask is met cold and warm.
func TestPlanMatchesReference(t *testing.T) {
	for _, d := range []int{6, 10} {
		var masks []uint64
		if d == 6 {
			for m := uint64(0); m < 1<<6; m++ {
				masks = append(masks, m)
			}
		} else {
			masks = []uint64{0, 1<<10 - 1}
			pick := randgen.New(5)
			for i := 0; i < 120; i++ {
				masks = append(masks, pick.Uint64()&(1<<10-1))
			}
		}
		for _, k := range []int{1, 3, 10} {
			for _, bad := range []bool{false, true} {
				rng := randgen.New(uint64(1000*d + 10*k))
				pi, mu, sigma := mixture(rng, k, d, bad)
				plan, err := NewPlan(pi, mu, sigma)
				if err != nil {
					t.Fatal(err)
				}
				got, want := randgen.New(7), randgen.New(7)
				failures := 0
				for rep := 0; rep < 3; rep++ {
					for _, bits := range masks {
						missing := maskOf(bits, d)
						xGot := make(linalg.Vec, d)
						for i := range xGot {
							xGot[i] = mu[rng.Intn(k)][i] + rng.Norm()
						}
						xWant := xGot.Clone()
						cGot, cWant := -1, -1
						errGot := plan.Impute(got, xGot, missing, &cGot)
						errWant := refImpute(want, pi, mu, sigma, xWant, missing, &cWant)
						where := fmt.Sprintf("D=%d K=%d bad=%v mask=%b rep %d", d, k, bad, bits, rep)
						if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
							t.Fatalf("%s: error %v, reference %v", where, errGot, errWant)
						}
						if errGot != nil {
							failures++
						}
						if cGot != cWant {
							t.Fatalf("%s: cluster %d, reference %d", where, cGot, cWant)
						}
						for i := range xGot {
							if math.Float64bits(xGot[i]) != math.Float64bits(xWant[i]) {
								t.Fatalf("%s: x = %v, reference %v", where, xGot, xWant)
							}
						}
						if *got != *want {
							t.Fatalf("%s: RNG streams diverged", where)
						}
					}
				}
				if bad && k > 1 && failures == 0 {
					t.Fatalf("D=%d K=%d: the non-SPD cluster failed no update", d, k)
				}
			}
		}
	}
}

// SampleMissing is the plan's conditional draw for one point and one
// cluster: same bits, same RNG use and same errors as the reference.
func TestSampleMissingMatchesReference(t *testing.T) {
	for _, bad := range []bool{false, true} {
		rng := randgen.New(17)
		_, mu, sigma := mixture(rng, 2, 6, bad)
		got, want := randgen.New(3), randgen.New(3)
		for bits := uint64(0); bits < 1<<6; bits++ {
			missing := maskOf(bits, 6)
			xGot := make(linalg.Vec, 6)
			for i := range xGot {
				xGot[i] = rng.Norm()
			}
			xWant := xGot.Clone()
			errGot := SampleMissing(got, xGot, missing, mu[1], sigma[1])
			errWant := refSampleMissing(want, xWant, missing, mu[1], sigma[1])
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
				t.Fatalf("bad=%v mask=%b: error %v, reference %v", bad, bits, errGot, errWant)
			}
			for i := range xGot {
				if math.Float64bits(xGot[i]) != math.Float64bits(xWant[i]) || *got != *want {
					t.Fatalf("bad=%v mask=%b: x = %v, reference %v", bad, bits, xGot, xWant)
				}
			}
		}
	}
}

// Goroutines sharing one cold plan must draw exactly what each would
// alone: every entry is a pure function of the parameters and the mask,
// whoever builds it. Run under -race.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	const workers, points, d, k = 8, 400, 10, 10
	pi, mu, sigma := mixture(randgen.New(21), k, d, true)
	run := func(plan *Plan, w int) ([]linalg.Vec, []int, []error) {
		rng := randgen.New(uint64(w))
		xs, cs, errs := make([]linalg.Vec, points), make([]int, points), make([]error, points)
		for i := range xs {
			missing := maskOf(rng.Uint64(), d)
			x := make(linalg.Vec, d)
			for j := range x {
				x[j] = mu[i%k][j] + rng.Norm()
			}
			cs[i] = -1
			errs[i] = plan.Impute(rng, x, missing, &cs[i])
			xs[i] = x
		}
		return xs, cs, errs
	}
	shared, err := NewPlan(pi, mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		xs   []linalg.Vec
		cs   []int
		errs []error
	}
	got := make([]out, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w].xs, got[w].cs, got[w].errs = run(shared, w)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		alone, err := NewPlan(pi, mu, sigma)
		if err != nil {
			t.Fatal(err)
		}
		xs, cs, errs := run(alone, w)
		for i := range xs {
			if fmt.Sprint(errs[i]) != fmt.Sprint(got[w].errs[i]) || cs[i] != got[w].cs[i] {
				t.Fatalf("worker %d point %d: shared plan gave (%d, %v), alone (%d, %v)", w, i, got[w].cs[i], got[w].errs[i], cs[i], errs[i])
			}
			for j := range xs[i] {
				if math.Float64bits(xs[i][j]) != math.Float64bits(got[w].xs[i][j]) {
					t.Fatalf("worker %d point %d: shared plan imputed %v, alone %v", w, i, got[w].xs[i], xs[i])
				}
			}
		}
	}
}
