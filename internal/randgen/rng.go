// Package randgen provides the deterministic random number generation used
// throughout the benchmark: a splittable 64-bit generator plus samplers for
// every distribution the five MCMC models require (Gaussian, multivariate
// normal, Gamma, inverse Gamma, Beta, Dirichlet, Wishart, inverse Wishart,
// inverse Gaussian, Categorical and Multinomial).
//
// Determinism matters here: the paper stresses that "each platform is
// running exactly the same MCMC simulation", and our cross-engine agreement
// tests rely on reproducible substreams. Split derives an independent
// stream for each machine, partition, or vertex.
package randgen

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). It is not safe for concurrent use;
// derive one per goroutine with Split.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	for i := range r.s {
		r.s[i] = splitMix64(&st)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent generator from r and the given stream id.
// Calling Split with distinct ids yields streams that do not overlap in
// practice; it does not advance r.
func (r *RNG) Split(id uint64) *RNG {
	st := r.s[0] ^ (id+1)*0xD1B54A32D192ED03
	out := &RNG{}
	for i := range out.s {
		out.s[i] = splitMix64(&st)
	}
	if out.s[0]|out.s[1]|out.s[2]|out.s[3] == 0 {
		out.s[0] = 1
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next raw 64-bit output.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform sample in (0, 1), never exactly 0.
func (r *RNG) Float64Open() float64 {
	for {
		if u := r.Float64(); u > 0 {
			return u
		}
	}
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("randgen: Intn with non-positive n")
	}
	// Lemire-style bounded rejection.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Norm returns a standard normal sample (polar Box-Muller, one value per
// call with the spare cached implicitly discarded for simplicity).
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a sample from Normal(mu, sigma^2) with standard deviation
// sigma. It panics if sigma < 0.
func (r *RNG) Normal(mu, sigma float64) float64 {
	if sigma < 0 {
		panic("randgen: negative standard deviation")
	}
	return mu + sigma*r.Norm()
}
