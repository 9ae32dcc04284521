// Package impute implements the Gaussian missing-data imputation model of
// the paper's Section 9: a Gaussian mixture model extended with one extra
// Gibbs step that redraws each data point's censored coordinates from the
// conditional multivariate normal of its assigned cluster,
//
//	x1 | x2 ~ Normal(mu1 + S12 S22^{-1} (x2 - mu2), S11 - S12 S22^{-1} S21),
//
// where the dimensions are partitioned into censored (1) and observed (2)
// blocks.
package impute

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

// Partition splits dimension indices into censored and observed lists.
func Partition(missing []bool) (censored, observed []int) {
	for i, m := range missing {
		if m {
			censored = append(censored, i)
		} else {
			observed = append(observed, i)
		}
	}
	return
}

// block returns the submatrix sigma[rows, cols].
func block(sigma *linalg.Mat, rows, cols []int) *linalg.Mat {
	b := linalg.NewMat(len(rows), len(cols))
	for i, r := range rows {
		for j, c := range cols {
			b.Set(i, j, sigma.At(r, c))
		}
	}
	return b
}

// condCov returns S12 and the conditional covariance S11 - S12 S22^{-1}
// S21, given the Cholesky factor l22 of S22.
func condCov(sigma *linalg.Mat, censored, observed []int, l22 *linalg.Mat) (s12, sigC *linalg.Mat) {
	s12 = block(sigma, censored, observed)
	adj := s12.MulMat(linalg.CholInverse(l22)).MulMat(s12.T())
	sigC = block(sigma, censored, censored).Sub(adj).Symmetrize()
	// Guard tiny negative eigenvalues from round-off.
	for i := range censored {
		if sigC.At(i, i) < 1e-9 {
			sigC.Set(i, i, sigC.At(i, i)+1e-9)
		}
	}
	return s12, sigC
}

// condMean writes the conditional mean mu1 + S12 S22^{-1} diff into dst,
// where diff holds x2 - mu2; diff is overwritten.
func condMean(dst, mu linalg.Vec, censored []int, s12, l22 *linalg.Mat, diff linalg.Vec) {
	linalg.SolveLowerTo(diff, l22, diff)
	linalg.SolveUpperTTo(diff, l22, diff)
	for i, ci := range censored {
		dst[i] = mu[ci] + s12.Row(i).Dot(diff)
	}
}

// SampleMissing redraws x's censored coordinates in place from the
// conditional normal of cluster (mu, sigma). missing[i] marks censored
// dimensions. It is the second half of Plan.Impute, for one point and one
// cluster.
func SampleMissing(rng *randgen.RNG, x linalg.Vec, missing []bool, mu linalg.Vec, sigma *linalg.Mat) error {
	p := newPlan([]float64{1}, []linalg.Vec{mu}, []*linalg.Mat{sigma})
	return p.redraw(rng, p.newMask(missing), 0, x)
}

// Flops approximates the work of one conditional draw at dimension d
// (block extraction, a Cholesky of the observed block, and solves).
func Flops(d int) float64 { return 3 * float64(d) * float64(d) * float64(d) }

// maxPlanDim is the widest point a Plan takes: it keys a missingness
// mask by its bits packed into a uint64.
const maxPlanDim = 64

// Plan is the blocked imputation update for fixed mixture parameters
// (pi, mu, Sigma), memoised per missingness mask. Its factorizations
// depend only on the parameters and on which coordinates a point is
// missing: the first point with a mask pays for the Cholesky factor of
// each Sigma_k[obs,obs] and its log-density constant, and the first of
// those drawn into cluster k pays for S12 and the conditional
// covariance's factor. Later points do only their own solves and draws,
// with the same floating-point operations in the same order as factoring
// afresh. Every entry is a pure function of (parameters, mask), so
// concurrent callers may share a Plan and their draws do not depend on
// which of them built an entry. The caller must not modify the
// parameters' vectors and matrices in place while the Plan is in use.
type Plan struct {
	pi    []float64
	logPi []float64
	mu    []linalg.Vec
	sigma []*linalg.Mat
	masks sync.Map // packed mask (uint64) -> *maskPlan
}

// maskPlan holds what one missingness mask's updates share.
type maskPlan struct {
	censored, observed []int
	// Per cluster: the Cholesky factor of Sigma_k[obs,obs] and
	// o log 2pi + log|Sigma_k[obs,obs]|, or the factorization's error.
	chol []*linalg.Mat
	norm []float64
	err  []error
	cond []atomic.Pointer[condPlan] // built on the first draw into cluster k
}

// condPlan is one cluster's conditional normal for one mask.
type condPlan struct {
	s12  *linalg.Mat // Sigma_k[cen,obs]; nil when nothing is observed
	chol *linalg.Mat // Cholesky factor of the conditional covariance
	err  error
}

// NewPlan returns the Plan of the mixture (pi, mu, sigma). It keeps its
// own copies of the three slices, not of the vectors and matrices they
// hold.
func NewPlan(pi []float64, mu []linalg.Vec, sigma []*linalg.Mat) (*Plan, error) {
	if len(mu) > 0 && len(mu[0]) > maxPlanDim {
		return nil, fmt.Errorf("impute: plan of dimension %d, at most %d", len(mu[0]), maxPlanDim)
	}
	return newPlan(pi, mu, sigma), nil
}

func newPlan(pi []float64, mu []linalg.Vec, sigma []*linalg.Mat) *Plan {
	p := &Plan{
		pi:    append([]float64(nil), pi...),
		logPi: make([]float64, len(pi)),
		mu:    append([]linalg.Vec(nil), mu...),
		sigma: append([]*linalg.Mat(nil), sigma...),
	}
	for k, w := range pi {
		p.logPi[k] = math.Log(w)
	}
	return p
}

// Impute performs the blocked Gibbs update of one point x with censoring
// mask missing. It draws the cluster from the marginal posterior over the
// observed coordinates only,
//
//	Pr[c = k] ∝ pi_k N(x_obs | mu_k[obs], Sigma_k[obs, obs]),
//
// stores it in *c, then redraws x's censored coordinates in place from
// that cluster's conditional normal. Drawing c from imputed coordinates
// instead would create a self-reinforcing loop that stalls the chain
// under heavy censoring. On an error x is unchanged, and so is *c if the
// cluster could not be drawn.
func (p *Plan) Impute(rng *randgen.RNG, x linalg.Vec, missing []bool, c *int) error {
	e := p.mask(missing)
	k, err := p.membership(rng, e, x)
	if err != nil {
		return err
	}
	*c = k
	return p.redraw(rng, e, k, x)
}

// mask returns the memoised entry of a missingness mask, building it on
// first use. Concurrent first uses may both build it; one entry wins and
// the two are equal.
func (p *Plan) mask(missing []bool) *maskPlan {
	var key uint64
	for i, m := range missing {
		if m {
			key |= 1 << i
		}
	}
	if e, ok := p.masks.Load(key); ok {
		return e.(*maskPlan)
	}
	e, _ := p.masks.LoadOrStore(key, p.newMask(missing))
	return e.(*maskPlan)
}

func (p *Plan) newMask(missing []bool) *maskPlan {
	censored, observed := Partition(missing)
	k := len(p.pi)
	e := &maskPlan{
		censored: censored,
		observed: observed,
		chol:     make([]*linalg.Mat, k),
		norm:     make([]float64, k),
		err:      make([]error, k),
		cond:     make([]atomic.Pointer[condPlan], k),
	}
	if len(observed) == 0 {
		return e
	}
	for c := range e.chol {
		l, err := linalg.Cholesky(block(p.sigma[c], observed, observed))
		if err != nil {
			e.err[c] = err
			continue
		}
		e.chol[c] = l
		e.norm[c] = float64(len(observed))*math.Log(2*math.Pi) + linalg.CholLogDet(l)
	}
	return e
}

// membership draws the cluster of x from its observed coordinates. The
// K log-weights and the whitened residual live on the stack whenever
// K+o <= 128.
func (p *Plan) membership(rng *randgen.RNG, e *maskPlan, x linalg.Vec) (int, error) {
	o := len(e.observed)
	if o == 0 {
		return rng.Categorical(p.pi), nil
	}
	for c, err := range e.err {
		if err != nil {
			return 0, fmt.Errorf("impute: observed block of cluster %d: %w", c, err)
		}
	}
	k := len(p.pi)
	var buf [128]float64
	scratch := buf[:]
	if k+o > len(buf) {
		scratch = make([]float64, k+o)
	}
	w, sol := scratch[:k], linalg.Vec(scratch[k:k+o])
	max := math.Inf(-1)
	for c := range w {
		mu := p.mu[c]
		for i, oi := range e.observed {
			sol[i] = x[oi] - mu[oi]
		}
		linalg.SolveLowerTo(sol, e.chol[c], sol)
		w[c] = p.logPi[c] - 0.5*(e.norm[c]+sol.Dot(sol))
		if w[c] > max {
			max = w[c]
		}
	}
	for c := range w {
		w[c] = math.Exp(w[c] - max)
	}
	return rng.Categorical(w), nil
}

// redraw draws x's censored coordinates from cluster k's conditional
// normal given its observed ones.
func (p *Plan) redraw(rng *randgen.RNG, e *maskPlan, k int, x linalg.Vec) error {
	n, o := len(e.censored), len(e.observed)
	if n == 0 {
		return nil
	}
	if e.err[k] != nil {
		return fmt.Errorf("impute: observed block: %w", e.err[k])
	}
	cp := p.conditional(e, k)
	if cp.err != nil {
		return cp.err
	}
	var buf [128]float64
	scratch := buf[:]
	if n+o > len(buf) {
		scratch = make([]float64, n+o)
	}
	muC, diff := linalg.Vec(scratch[:n]), linalg.Vec(scratch[n:n+o])
	mu := p.mu[k]
	if o == 0 {
		for i, ci := range e.censored {
			muC[i] = mu[ci]
		}
	} else {
		for i, oi := range e.observed {
			diff[i] = x[oi] - mu[oi]
		}
		condMean(muC, mu, e.censored, cp.s12, e.chol[k], diff)
	}
	draw := rng.MVNormalChol(muC, cp.chol)
	for i, ci := range e.censored {
		x[ci] = draw[i]
	}
	return nil
}

// conditional returns cluster k's conditional normal for mask e,
// building it on first use.
func (p *Plan) conditional(e *maskPlan, k int) *condPlan {
	if cp := e.cond[k].Load(); cp != nil {
		return cp
	}
	cp := &condPlan{}
	var sigC *linalg.Mat
	if len(e.observed) == 0 {
		sigC = block(p.sigma[k], e.censored, e.censored)
	} else {
		cp.s12, sigC = condCov(p.sigma[k], e.censored, e.observed, e.chol[k])
	}
	cp.chol, cp.err = linalg.Cholesky(sigC)
	if cp.err != nil {
		// The error drawing through randgen.MVNormal returns.
		cp.err = fmt.Errorf("impute: conditional draw: randgen: MVNormal covariance: %w", cp.err)
	}
	e.cond[k].CompareAndSwap(nil, cp)
	return e.cond[k].Load()
}
