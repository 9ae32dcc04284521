package randgen

import (
	"fmt"
	"math"

	"mlbench/internal/linalg"
)

// Gamma returns a sample from Gamma(shape, rate) — mean shape/rate — using
// the Marsaglia–Tsang method, boosted for shape < 1. It panics if shape or
// rate is not positive.
func (r *RNG) Gamma(shape, rate float64) float64 {
	if shape <= 0 || rate <= 0 {
		panic(fmt.Sprintf("randgen: Gamma(%v, %v) requires positive parameters", shape, rate))
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64Open()
		return r.Gamma(shape+1, rate) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Norm()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v / rate
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v / rate
		}
	}
}

// InvGamma returns a sample from InverseGamma(shape, scale): the reciprocal
// of a Gamma(shape, rate=scale) draw. Its mean is scale/(shape-1) for
// shape > 1.
func (r *RNG) InvGamma(shape, scale float64) float64 {
	return 1 / r.Gamma(shape, scale)
}

// ChiSquared returns a sample from ChiSquared(df).
func (r *RNG) ChiSquared(df float64) float64 {
	return r.Gamma(df/2, 0.5)
}

// Beta returns a sample from Beta(a, b).
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a, 1)
	y := r.Gamma(b, 1)
	return x / (x + y)
}

// Dirichlet returns a sample from Dirichlet(alpha). The result sums to 1.
// It panics if alpha is empty or has a non-positive entry.
func (r *RNG) Dirichlet(alpha []float64) linalg.Vec {
	if len(alpha) == 0 {
		panic("randgen: Dirichlet with empty alpha")
	}
	out := make(linalg.Vec, len(alpha))
	var sum float64
	for i, a := range alpha {
		g := r.Gamma(a, 1)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Extremely small alphas can underflow all gammas to zero;
		// fall back to a uniform point on the simplex corner set.
		out[r.Intn(len(out))] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Categorical returns an index sampled proportionally to the (unnormalized,
// non-negative) weights. It panics if all weights are zero or any is
// negative.
func (r *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("randgen: Categorical with invalid weight %v", w))
		}
		total += w
	}
	if total <= 0 {
		panic("randgen: Categorical with zero total weight")
	}
	u := r.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1 // round-off fall-through
}

// InvGaussian returns a sample from the inverse Gaussian (Wald)
// distribution with mean mu and shape lambda, via the
// Michael–Schucany–Haas transformation.
func (r *RNG) InvGaussian(mu, lambda float64) float64 {
	if mu <= 0 || lambda <= 0 {
		panic(fmt.Sprintf("randgen: InvGaussian(%v, %v) requires positive parameters", mu, lambda))
	}
	nu := r.Norm()
	y := nu * nu
	x := mu + mu*mu*y/(2*lambda) - mu/(2*lambda)*math.Sqrt(4*mu*lambda*y+mu*mu*y*y)
	if x <= 0 {
		// Guard against catastrophic cancellation for extreme draws.
		x = math.SmallestNonzeroFloat64
	}
	if r.Float64() <= mu/(mu+x) {
		return x
	}
	return mu * mu / x
}

// MVNormalChol returns a sample from the multivariate normal with mean mu
// and covariance L*L^T, given the lower Cholesky factor L.
func (r *RNG) MVNormalChol(mu linalg.Vec, l *linalg.Mat) linalg.Vec {
	n := len(mu)
	z := make(linalg.Vec, n)
	for i := range z {
		z[i] = r.Norm()
	}
	out := make(linalg.Vec, n)
	for i := 0; i < n; i++ {
		s := mu[i]
		row := l.Data[i*n : i*n+i+1]
		for k, v := range row {
			s += v * z[k]
		}
		out[i] = s
	}
	return out
}

// MVNormal returns a sample from Normal(mu, cov). The covariance matrix
// must be symmetric positive definite.
func (r *RNG) MVNormal(mu linalg.Vec, cov *linalg.Mat) (linalg.Vec, error) {
	l, err := linalg.Cholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("randgen: MVNormal covariance: %w", err)
	}
	return r.MVNormalChol(mu, l), nil
}

// Wishart returns a sample from Wishart(df, scale) via the Bartlett
// decomposition: if A is lower triangular with chi and normal entries and
// L is the Cholesky factor of scale, the draw is L*A*A^T*L^T. df must be
// at least the dimension.
func (r *RNG) Wishart(df float64, scale *linalg.Mat) (*linalg.Mat, error) {
	p := scale.Rows
	if df < float64(p) {
		return nil, fmt.Errorf("randgen: Wishart df %v < dimension %d", df, p)
	}
	l, err := linalg.Cholesky(scale)
	if err != nil {
		return nil, fmt.Errorf("randgen: Wishart scale: %w", err)
	}
	a := linalg.NewMat(p, p)
	for i := 0; i < p; i++ {
		a.Set(i, i, math.Sqrt(r.ChiSquared(df-float64(i))))
		for j := 0; j < i; j++ {
			a.Set(i, j, r.Norm())
		}
	}
	la := l.MulMat(a)
	return la.MulMat(la.T()).Symmetrize(), nil
}

// InvWishart returns a sample from the inverse Wishart distribution with
// df degrees of freedom and scale matrix psi: the inverse of a
// Wishart(df, psi^{-1}) draw. Its mean is psi/(df - p - 1) for df > p+1.
func (r *RNG) InvWishart(df float64, psi *linalg.Mat) (*linalg.Mat, error) {
	psiL, err := linalg.Cholesky(psi)
	if err != nil {
		return nil, fmt.Errorf("randgen: InvWishart scale: %w", err)
	}
	psiInv := linalg.CholInverse(psiL)
	w, err := r.Wishart(df, psiInv)
	if err != nil {
		return nil, err
	}
	wl, err := linalg.Cholesky(w)
	if err != nil {
		return nil, fmt.Errorf("randgen: InvWishart draw not invertible: %w", err)
	}
	return linalg.CholInverse(wl).Symmetrize(), nil
}

// Poisson returns a sample from Poisson(lambda): Knuth inversion for
// small rates, and recursive rate-splitting (Poisson(a+b) is the sum of
// independent Poisson(a) and Poisson(b)) for large ones.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		panic(fmt.Sprintf("randgen: Poisson(%v) requires a positive rate", lambda))
	}
	if lambda < 30 {
		// Knuth inversion.
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64Open()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Split the rate: Poisson(a+b) = Poisson(a) + Poisson(b).
	half := lambda / 2
	return r.Poisson(half) + r.Poisson(lambda-half)
}
