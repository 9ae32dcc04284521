package randgen

import "fmt"

// SamplerTier selects how the LDA/HMM token hot path draws from its
// per-token categorical conditional. The tiers trade setup cost for
// per-draw cost, LightLDA-style:
//
//   - TierDense is the paper-faithful O(K) linear scan over exact
//     weights. It is the default and stays byte-identical to the
//     historical behaviour — same weights, same RNG consumption.
//   - TierAlias draws the same exact per-token distribution through a
//     freshly built Walker/Vose alias table. The distribution is
//     identical to dense (the alias method is exact) but the draw
//     consumes randomness differently, so chains diverge bit-wise. It
//     exists as the correctness midpoint between dense and mhalias:
//     only the draw mechanics change, not the target.
//   - TierMHAlias is the O(1)-amortized Metropolis-Hastings sampler:
//     cycled doc-proposal/word-proposal moves against per-iteration
//     cached alias tables (deliberately stale within the iteration),
//     with the exact accept ratio correcting for the staleness, over
//     sparse count structures.
type SamplerTier int

const (
	// TierDense: exact O(K) scan, byte-identical default.
	TierDense SamplerTier = iota
	// TierAlias: exact per-draw alias table over the dense weights.
	TierAlias
	// TierMHAlias: cached-stale-alias Metropolis-Hastings proposals.
	TierMHAlias
)

// String names the tier as the -sampler flag spells it.
func (t SamplerTier) String() string {
	switch t {
	case TierAlias:
		return "alias"
	case TierMHAlias:
		return "mhalias"
	default:
		return "dense"
	}
}

// ParseSamplerTier parses a tier name; the empty string means the dense
// default. Unknown names are rejected together with the valid set.
func ParseSamplerTier(s string) (SamplerTier, error) {
	switch s {
	case "", "dense":
		return TierDense, nil
	case "alias":
		return TierAlias, nil
	case "mhalias":
		return TierMHAlias, nil
	default:
		return TierDense, fmt.Errorf("randgen: unknown sampler tier %q (valid tiers: dense, alias, mhalias)", s)
	}
}

// CategoricalSafe samples an index proportionally to the weights, falling
// back to a uniform draw when every weight underflows to zero — the
// degenerate-conditional guard the LDA and HMM samplers share. The
// randomness consumption is exactly the historical per-model fallback:
// one Intn on underflow, one Float64 (inside Categorical) otherwise.
func (r *RNG) CategoricalSafe(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	return r.Categorical(weights)
}
