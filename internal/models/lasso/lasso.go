// Package lasso implements the Bayesian Lasso Gibbs sampler of Park &
// Casella (2008) as specified in the paper's Section 6: inverse-Gaussian
// auxiliary variables 1/tau_j^2, a multivariate normal draw for the
// regression vector beta, and an inverse-gamma draw for the noise
// variance sigma^2. The platform implementations in
// internal/tasks/lassotask compute the distributed pieces (the Gram
// matrix X^T X, X^T y, and the residual sum of squares) and call these
// kernels for the model updates.
package lasso

import (
	"fmt"
	"math"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

// Hyper holds the sampler's fixed hyperparameters.
type Hyper struct {
	Lambda float64 // Lasso regularization
	P      int     // number of regressors
}

// State is the Markov chain state.
type State struct {
	Beta    linalg.Vec
	InvTau2 linalg.Vec // 1/tau_j^2 auxiliaries
	Sigma2  float64
}

// Init returns the chain's starting state: beta zero, unit auxiliaries,
// unit noise variance.
func Init(p int) *State {
	s := &State{Beta: linalg.NewVec(p), InvTau2: make(linalg.Vec, p), Sigma2: 1}
	for j := range s.InvTau2 {
		s.InvTau2[j] = 1
	}
	return s
}

// SampleInvTau2 draws 1/tau_j^2 ~ InvGaussian(sqrt(lambda^2 sigma^2 /
// beta_j^2), lambda^2) for each j, as in the paper's update.
func SampleInvTau2(rng *randgen.RNG, h Hyper, s *State) {
	l2 := h.Lambda * h.Lambda
	for j := range s.InvTau2 {
		b2 := s.Beta[j] * s.Beta[j]
		if b2 < 1e-300 {
			b2 = 1e-300 // a zero coefficient gives an (effectively) infinite-mean draw
		}
		mu := math.Sqrt(l2 * s.Sigma2 / b2)
		if mu > 1e12 {
			mu = 1e12
		}
		s.InvTau2[j] = rng.InvGaussian(mu, l2)
	}
}

// SampleBeta draws beta ~ Normal(A^{-1} X^T y, sigma^2 A^{-1}) where
// A = X^T X + D_tau^{-1}, given the precomputed Gram matrix and X^T y.
// It works in precision form: with A = L L^T factored once, the mean is
// L^{-T} L^{-1} X^T y and beta = mean + sigma L^{-T} z for z ~ N(0, I),
// since L^{-T} z has covariance (L L^T)^{-1} = A^{-1}. No inverse and no
// second factorization is formed.
func SampleBeta(rng *randgen.RNG, s *State, xtx *linalg.Mat, xty linalg.Vec) error {
	p := len(s.Beta)
	a := xtx.Clone()
	for j := 0; j < p; j++ {
		a.Set(j, j, a.At(j, j)+s.InvTau2[j])
	}
	aL, err := choleskyJittered(a.Symmetrize())
	if err != nil {
		return fmt.Errorf("lasso: posterior precision: %w", err)
	}
	beta := linalg.CholSolve(aL, xty)
	z := make(linalg.Vec, p)
	for j := range z {
		z[j] = rng.Norm()
	}
	sigma := math.Sqrt(s.Sigma2)
	for j, d := range linalg.SolveUpperT(aL, z) {
		beta[j] += sigma * d
	}
	s.Beta = beta
	return nil
}

// choleskyJittered factors an SPD matrix, retrying with growing diagonal
// jitter when extreme conditioning (e.g. a rank-deficient Gram matrix
// from few observations) produces round-off indefiniteness.
func choleskyJittered(m *linalg.Mat) (*linalg.Mat, error) {
	l, err := linalg.Cholesky(m)
	if err == nil {
		return l, nil
	}
	base := m.Trace() / float64(m.Rows)
	if base <= 0 {
		base = 1
	}
	for eps := 1e-12; eps <= 1e-3; eps *= 100 {
		j := m.Clone()
		for i := 0; i < j.Rows; i++ {
			j.Set(i, i, j.At(i, i)+eps*base)
		}
		if l, err = linalg.Cholesky(j); err == nil {
			return l, nil
		}
	}
	return nil, err
}

// SampleSigma2 draws sigma^2 ~ InvGamma((1+n+p)/2, (2 + sse +
// sum beta_j^2/tau_j^2)/2) where sse = sum (y - beta.x)^2 is supplied by
// the distributed residual pass.
func SampleSigma2(rng *randgen.RNG, s *State, n float64, sse float64) {
	p := float64(len(s.Beta))
	var penalty float64
	for j := range s.Beta {
		penalty += s.Beta[j] * s.Beta[j] * s.InvTau2[j]
	}
	shape := (1 + n + p) / 2
	scale := (2 + sse + penalty) / 2
	s.Sigma2 = rng.InvGamma(shape, scale)
}

// BetaFlops is the simulated flop charge of one beta draw at dimension p.
// It prices the paper platforms' draw — a Cholesky factorization of the
// precision, its inverse, and a second factorization of the covariance —
// and is deliberately independent of the host algorithm SampleBeta uses,
// so the virtual clock does not move when the host kernel changes.
func BetaFlops(p int) float64 { return 4 * float64(p) * float64(p) * float64(p) }

// GramFlops approximates the work of accumulating one data point's
// contribution to the Gram matrix.
func GramFlops(p int) float64 { return float64(p) * float64(p) }
