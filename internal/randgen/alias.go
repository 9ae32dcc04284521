package randgen

import (
	"fmt"
	"math"
)

// Alias is a Walker/Vose alias table: an O(K) preprocessing of a discrete
// distribution that turns each subsequent draw into O(1) work — one uniform
// index plus one coin flip — instead of Categorical's O(K) linear scan.
// This is the standard fix for topic-model sampling throughput (LightLDA
// et al.): LDA and HMM resample every word against the same per-topic
// distribution, so the table build amortizes over millions of draws.
//
// The sampled distribution is exactly proportional to the weights (the
// alias method is not an approximation), but the draw consumes randomness
// differently than Categorical, so switching a sampler changes the stream
// of variates. Callers opt in where the math permits; default paths keep
// using Categorical and stay byte-identical.
type Alias struct {
	prob  []float64 // acceptance threshold per column
	alias []int     // fallback index per column
}

// NewAlias builds an alias table for the (unnormalized, non-negative)
// weights with Vose's O(K) construction. It panics on invalid weights,
// mirroring Categorical.
func NewAlias(weights []float64) *Alias {
	k := len(weights)
	if k == 0 {
		panic("randgen: NewAlias with no weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("randgen: NewAlias with invalid weight %v", w))
		}
		total += w
	}
	if total <= 0 {
		panic("randgen: NewAlias with zero total weight")
	}
	a := &Alias{prob: make([]float64, k), alias: make([]int, k)}
	// Scale weights so the average column is exactly 1; split columns into
	// under- and over-full and pair them off.
	scaled := make([]float64, k)
	small := make([]int, 0, k)
	large := make([]int, 0, k)
	for i, w := range weights {
		scaled[i] = w * float64(k) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Round-off leftovers are exactly-full columns.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Draw samples an index in O(1): pick a uniform column, then accept it or
// take its alias.
func (a *Alias) Draw(r *RNG) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Pmf returns the exact probability mass the table assigns to each
// outcome (for tests): column i is chosen with probability 1/K and kept
// with probability prob[i]; otherwise its alias receives the mass.
func (a *Alias) Pmf() []float64 {
	k := len(a.prob)
	out := make([]float64, k)
	for i := range a.prob {
		out[i] += a.prob[i] / float64(k)
		out[a.alias[i]] += (1 - a.prob[i]) / float64(k)
	}
	return out
}
