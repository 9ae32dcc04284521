// Package gmm implements the Gaussian mixture model Gibbs sampler of the
// paper's Section 5: a Normal prior on each cluster mean, an inverse
// Wishart prior on each covariance, a Dirichlet prior on the mixing
// proportions, and multinomial cluster memberships. The package provides
// the shared math kernels (sufficient statistics, conjugate posterior
// updates, membership sampling); the per-platform implementations in
// internal/tasks/gmmtask map them onto the four engines.
package gmm

import (
	"fmt"
	"math"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

// Hyper holds the model hyperparameters. Following the paper, Mu0 and the
// prior covariance are computed empirically from the data (the observed
// mean and diagonal dimensional variance).
type Hyper struct {
	K       int         // number of clusters
	D       int         // dimensionality
	Mu0     linalg.Vec  // prior mean for cluster means
	Lambda0 *linalg.Mat // prior precision for cluster means
	Psi     *linalg.Mat // inverse Wishart scale
	Nu      float64     // inverse Wishart degrees of freedom
	Alpha   linalg.Vec  // Dirichlet prior on mixing proportions
}

// HyperFromMoments builds the paper's empirical hyperparameters from the
// data mean and per-dimension variance: Mu0 is the mean, the prior
// covariance is diag(variance) (so Lambda0 is its inverse), Psi is
// diag(variance), Nu is d+2 and Alpha is uniform 1s.
func HyperFromMoments(k int, mean, variance linalg.Vec) Hyper {
	d := len(mean)
	lam := linalg.NewMat(d, d)
	psi := linalg.NewMat(d, d)
	for i, v := range variance {
		if v <= 0 {
			v = 1e-6
		}
		lam.Set(i, i, 1/v)
		psi.Set(i, i, v)
	}
	alpha := make(linalg.Vec, k)
	for i := range alpha {
		alpha[i] = 1
	}
	return Hyper{K: k, D: d, Mu0: mean.Clone(), Lambda0: lam, Psi: psi, Nu: float64(d) + 2, Alpha: alpha}
}

// Params is the model state at one Gibbs iteration.
type Params struct {
	K, D  int
	Pi    linalg.Vec
	Mu    []linalg.Vec
	Sigma []*linalg.Mat

	// Cached per-cluster Cholesky factors and log-determinants of Sigma,
	// refreshed by Prepare.
	chol   []*linalg.Mat
	logDet []float64
}

// Bytes returns the simulated size of the model state: the "50KB copy of
// the model" the paper's GraphLab materialized per data point.
func (p *Params) Bytes() int64 {
	perCluster := int64(8 * (p.D + p.D*p.D + 1))
	return int64(p.K)*perCluster + int64(8*p.K)
}

// Init draws initial parameters as the paper's codes do: each mean from
// Normal(Mu0, prior covariance), each covariance from
// InvWishart(Nu, Psi), and uniform mixing proportions.
func Init(rng *randgen.RNG, h Hyper) (*Params, error) {
	p := &Params{K: h.K, D: h.D}
	p.Pi = make(linalg.Vec, h.K)
	for k := range p.Pi {
		p.Pi[k] = 1 / float64(h.K)
	}
	priorCovL, err := linalg.Cholesky(h.Psi)
	if err != nil {
		return nil, fmt.Errorf("gmm: prior covariance: %w", err)
	}
	for k := 0; k < h.K; k++ {
		p.Mu = append(p.Mu, rng.MVNormalChol(h.Mu0, priorCovL))
		sig, err := rng.InvWishart(h.Nu, h.Psi)
		if err != nil {
			return nil, fmt.Errorf("gmm: init covariance %d: %w", k, err)
		}
		p.Sigma = append(p.Sigma, sig)
	}
	if err := p.Prepare(); err != nil {
		return nil, err
	}
	return p, nil
}

// Prepare refreshes the cached Cholesky factors after Mu/Sigma change.
func (p *Params) Prepare() error {
	p.chol = make([]*linalg.Mat, p.K)
	p.logDet = make([]float64, p.K)
	for k := 0; k < p.K; k++ {
		l, err := linalg.Cholesky(p.Sigma[k])
		if err != nil {
			return fmt.Errorf("gmm: covariance %d not positive definite: %w", k, err)
		}
		p.chol[k] = l
		p.logDet[k] = linalg.CholLogDet(l)
	}
	return nil
}

// LogDensity returns log N(x | mu_k, Sigma_k). Prepare must have run.
func (p *Params) LogDensity(k int, x linalg.Vec) float64 {
	diff := x.Sub(p.Mu[k])
	sol := linalg.SolveLower(p.chol[k], diff)
	quad := sol.Dot(sol)
	return -0.5 * (float64(p.D)*math.Log(2*math.Pi) + p.logDet[k] + quad)
}

// SampleMembership draws the cluster assignment for x given the current
// parameters: c_j ~ Multinomial(p_j, 1) with p_jk ∝ pi_k N(x|mu_k,Sigma_k).
func (p *Params) SampleMembership(rng *randgen.RNG, x linalg.Vec) int {
	logs := make([]float64, p.K)
	max := math.Inf(-1)
	for k := 0; k < p.K; k++ {
		logs[k] = math.Log(p.Pi[k]) + p.LogDensity(k, x)
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

// MembershipFlops approximates the floating-point work of one membership
// draw (K density evaluations, each a triangular solve).
func MembershipFlops(k, d int) float64 { return float64(k) * float64(d*d+3*d) }

// Stats holds the sufficient statistics one Gibbs iteration aggregates:
// per-cluster counts, first moments and raw second moments. Raw moments
// make the statistics mergeable in any order, which every platform's
// aggregation relies on.
type Stats struct {
	K, D  int
	N     []float64
	Sum   []linalg.Vec
	SumSq []*linalg.Mat
}

// NewStats returns zeroed statistics.
func NewStats(k, d int) *Stats {
	s := &Stats{K: k, D: d, N: make([]float64, k)}
	for i := 0; i < k; i++ {
		s.Sum = append(s.Sum, linalg.NewVec(d))
		s.SumSq = append(s.SumSq, linalg.NewMat(d, d))
	}
	return s
}

// Add absorbs one data point assigned to cluster k with the given weight
// (weight > 1 supports scale-up replication).
func (s *Stats) Add(k int, x linalg.Vec, weight float64) {
	s.N[k] += weight
	for i, v := range x {
		s.Sum[k][i] += weight * v
	}
	s.SumSq[k].AddOuter(weight, x, x)
}

// Merge folds another statistics object into s.
func (s *Stats) Merge(o *Stats) {
	for k := 0; k < s.K; k++ {
		s.N[k] += o.N[k]
		o.Sum[k].AddTo(s.Sum[k])
		s.SumSq[k].AddInPlace(o.SumSq[k])
	}
}

// scatterAbout returns sum_j (x_j - mu)(x_j - mu)^T for cluster k,
// reconstructed from the raw moments.
func (s *Stats) scatterAbout(k int, mu linalg.Vec) *linalg.Mat {
	sc := s.SumSq[k].Clone()
	sc.AddOuter(-1, mu, s.Sum[k])
	sc.AddOuter(-1, s.Sum[k], mu)
	sc.AddOuter(s.N[k], mu, mu)
	return sc.Symmetrize()
}

// UpdateParams draws the next iteration's parameters from the conjugate
// conditionals given the aggregated statistics, in the paper's order:
// each mu_k (using the previous Sigma_k), then each Sigma_k (using the new
// mu_k), then pi. It mutates p and refreshes the density caches.
func UpdateParams(rng *randgen.RNG, h Hyper, p *Params, s *Stats) error {
	for k := 0; k < h.K; k++ {
		// Posterior precision A = Lambda0 + n_k * Sigma_k^{-1};
		// mean = A^{-1} (Lambda0 mu0 + Sigma_k^{-1} sum_x).
		sigL, err := linalg.Cholesky(p.Sigma[k])
		if err != nil {
			return fmt.Errorf("gmm: Sigma[%d]: %w", k, err)
		}
		sigInv := linalg.CholInverse(sigL)
		a := h.Lambda0.Clone()
		a.AddInPlace(sigInv.Clone().ScaleInPlace(s.N[k]))
		aL, err := linalg.Cholesky(a.Symmetrize())
		if err != nil {
			return fmt.Errorf("gmm: posterior precision %d: %w", k, err)
		}
		rhs := h.Lambda0.MulVec(h.Mu0).Add(sigInv.MulVec(s.Sum[k]))
		mean := linalg.CholSolve(aL, rhs)
		cov := linalg.CholInverse(aL)
		covL, err := linalg.Cholesky(cov)
		if err != nil {
			return fmt.Errorf("gmm: posterior covariance %d: %w", k, err)
		}
		p.Mu[k] = rng.MVNormalChol(mean, covL)

		// Sigma_k ~ InvWishart(n_k + nu, Psi + scatter about the new mean).
		scale := h.Psi.Add(s.scatterAbout(k, p.Mu[k]))
		sig, err := rng.InvWishart(s.N[k]+h.Nu, scale.Symmetrize())
		if err != nil {
			return fmt.Errorf("gmm: Sigma draw %d: %w", k, err)
		}
		p.Sigma[k] = sig
	}
	// pi ~ Dirichlet(alpha + counts).
	alpha := make([]float64, h.K)
	for k := range alpha {
		alpha[k] = h.Alpha[k] + s.N[k]
	}
	p.Pi = rng.Dirichlet(alpha)
	return p.Prepare()
}

// UpdateFlops approximates the floating-point work of UpdateParams
// (per-cluster matrix inversions and Cholesky factorizations).
func UpdateFlops(k, d int) float64 { return float64(k) * 6 * float64(d*d*d) }

// LogLikelihood returns the data log-likelihood under the current
// parameters (for convergence diagnostics in tests).
func (p *Params) LogLikelihood(xs []linalg.Vec) float64 {
	var total float64
	for _, x := range xs {
		max := math.Inf(-1)
		logs := make([]float64, p.K)
		for k := 0; k < p.K; k++ {
			logs[k] = math.Log(p.Pi[k]) + p.LogDensity(k, x)
			if logs[k] > max {
				max = logs[k]
			}
		}
		var sum float64
		for _, l := range logs {
			sum += math.Exp(l - max)
		}
		total += max + math.Log(sum)
	}
	return total
}
