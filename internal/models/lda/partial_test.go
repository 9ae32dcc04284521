package lda

import (
	"math"
	"testing"

	"mlbench/internal/models/sparse"
	"mlbench/internal/randgen"
)

// denseMerge is a verbatim copy of the dense WordCounts.Merge every
// sender used before the sparse partial.
func denseMerge(c, o *WordCounts) {
	for t := 0; t < c.T; t++ {
		o.G[t].AddTo(c.G[t])
	}
}

// TestPartialFoldBitIdentical splits random documents at random across
// senders, merges the senders along a random tree and folds what is left
// into a receiver, once with partials and once with dense WordCounts.
// Every g(t, w) must agree by Float64bits, for weights that include the
// non-integer scale 10000/0.15.
func TestPartialFoldBitIdentical(t *testing.T) {
	const topics, v = 6, 50
	weights := []float64{1, 10000 / 0.15, 0.1, 1e3 * math.Pi}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := randgen.New(seed)
		n := 1 + rng.Intn(8)
		dense := make([]*WordCounts, n)
		parts := make([]*sparse.Counts, n)
		for i := range parts {
			dense[i], parts[i] = NewWordCounts(topics, v), sparse.New(v)
		}
		for d := rng.Intn(60); d > 0; d-- {
			doc := &Doc{Words: make([]int, rng.Intn(30))}
			for range doc.Words {
				doc.Z = append(doc.Z, rng.Intn(topics))
			}
			for i := range doc.Words {
				doc.Words[i] = rng.Intn(v)
			}
			i, w := rng.Intn(n), weights[rng.Intn(len(weights))]
			dense[i].Accumulate(doc, w)
			doc.Tally(parts[i], w)
		}
		for len(parts) > 1 && rng.Intn(4) != 0 {
			a, b := rng.Intn(len(parts)), rng.Intn(len(parts)-1)
			if b >= a {
				b++
			}
			denseMerge(dense[a], dense[b])
			parts[a].Merge(parts[b])
			dense = append(dense[:b], dense[b+1:]...)
			parts = append(parts[:b], parts[b+1:]...)
		}
		want, got := NewWordCounts(topics, v), NewWordCounts(topics, v)
		for i := range parts {
			denseMerge(want, dense[i])
			parts[i].AddTo(got.G)
		}
		for tp := range want.G {
			for w := range want.G[tp] {
				if math.Float64bits(got.G[tp][w]) != math.Float64bits(want.G[tp][w]) {
					t.Fatalf("seed %d: g(%d, %d) = %v, dense path %v", seed, tp, w, got.G[tp][w], want.G[tp][w])
				}
			}
		}
	}
}
