package hmm

import (
	"math"
	"runtime"
	"testing"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

// denseAccumulate and denseMerge are verbatim copies of the dense
// Counts.Accumulate and Counts.Merge every sender used before the sparse
// partial: the reference the partial path must match bit for bit.
func denseAccumulate(c *Counts, words, states []int, weight float64) {
	if len(words) == 0 {
		return
	}
	c.Start[states[0]] += weight
	for i, w := range words {
		c.Emit[states[i]][w] += weight
		if i+1 < len(states) {
			c.Trans[states[i]][states[i+1]] += weight
		}
	}
}

func denseMerge(c, o *Counts) {
	o.Start.AddTo(c.Start)
	for s := 0; s < c.K; s++ {
		o.Emit[s].AddTo(c.Emit[s])
		o.Trans[s].AddTo(c.Trans[s])
	}
}

// TestPartialFoldBitIdentical splits random documents at random across
// senders, merges the senders along a random tree and folds what is left
// into a receiver, once with partials and once with the dense path. Every
// Start, Trans and Emit entry must agree by Float64bits. The weights
// include the non-integer scale 10000/0.15, so any re-associated sum
// shows.
func TestPartialFoldBitIdentical(t *testing.T) {
	const k, v = 5, 40
	weights := []float64{1, 10000 / 0.15, 0.1, 1e3 * math.Pi}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := randgen.New(seed)
		n := 1 + rng.Intn(8)
		dense := make([]*Counts, n)
		parts := make([]*Partial, n)
		for i := range parts {
			dense[i], parts[i] = NewCounts(k, v), NewPartial(k, v)
		}
		for d := rng.Intn(60); d > 0; d-- {
			words, states := make([]int, rng.Intn(30)), []int(nil)
			for i := range words {
				words[i] = rng.Intn(v)
				states = append(states, rng.Intn(k))
			}
			i, w := rng.Intn(n), weights[rng.Intn(len(weights))]
			denseAccumulate(dense[i], words, states, w)
			parts[i].Accumulate(words, states, w)
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
		want, got := NewCounts(k, v), NewCounts(k, v)
		for i := range parts {
			denseMerge(want, dense[i])
			got.Fold(parts[i])
		}
		sameBits(t, seed, "Start", got.Start, want.Start)
		for s := 0; s < k; s++ {
			sameBits(t, seed, "Trans", got.Trans[s], want.Trans[s])
			sameBits(t, seed, "Emit", got.Emit[s], want.Emit[s])
		}
	}
}

func sameBits(t *testing.T, seed uint64, what string, got, want linalg.Vec) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("seed %d: %s[%d] = %v, dense path %v", seed, what, i, got[i], want[i])
		}
	}
}

// TestPartialDocumentAllocs pins the host cost of one document's
// statistics at paper shape (K = 20, V = 10,000, 210 words): a dense
// per-document Counts allocated about 1.6 MB; the partial stays under
// 64 KiB.
func TestPartialDocumentAllocs(t *testing.T) {
	const k, v, n, runs = 20, 10_000, 210, 20
	rng := randgen.New(3)
	words, states := make([]int, n), make([]int, n)
	for i := range words {
		words[i], states[i] = rng.Intn(v), rng.Intn(k)
	}
	recv := NewCounts(k, v)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		p := NewPartial(k, v)
		p.Accumulate(words, states, 10000/0.15)
		recv.Fold(p)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one document's partial: %d bytes", per)
	if per >= 64<<10 {
		t.Errorf("one document's partial allocates %d bytes, want < 64 KiB", per)
	}
}
