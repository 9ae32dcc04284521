package perfgate

import (
	"testing"

	"mlbench/internal/randgen"
)

// The point of the mhalias tier is that a token draw stops paying for
// the topic axis: the dense scan does a 3T-flop pass per token while
// the cached MH kernel does a constant handful of alias draws and one
// accept test. These tests pin that separation at the paper's T=100 and
// at the wide T=1000 axis — if the MH kernel regresses to within the
// pinned factor of the dense scan, the tier has lost its reason to
// exist.
func TestLDAMHDrawSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-time measurement")
	}
	opts := HarnessOptions{Reps: 5}
	for _, c := range []struct {
		topics int
		floor  float64
	}{{100, 2}, {1000, 5}} {
		dense, err := Measure(ldaResampleSpec("dense", randgen.TierDense, c.topics, 2_000), opts)
		if err != nil {
			t.Fatal(err)
		}
		mh, err := Measure(ldaResampleSpec("mhalias", randgen.TierMHAlias, c.topics, 2_000), opts)
		if err != nil {
			t.Fatal(err)
		}
		speedup := dense.MedianNS / mh.MedianNS
		t.Logf("lda T=%d: dense %.0f ns/op, mhalias %.0f ns/op, speedup %.1fx", c.topics, dense.MedianNS, mh.MedianNS, speedup)
		if speedup < c.floor {
			t.Errorf("mhalias speedup over the dense T=%d scan = %.1fx, want >= %.0fx", c.topics, speedup, c.floor)
		}
	}
}

// The HMM kernel's dense sweep is O(K) per position; the MH kernel is
// constant. K=100 is a softer axis than LDA's T=1000, so the pinned
// floor is lower.
func TestHMMMHDrawSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-time measurement")
	}
	opts := HarnessOptions{Reps: 5}
	dense, err := Measure(hmmResampleSpec("dense", randgen.TierDense, 2_000), opts)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := Measure(hmmResampleSpec("mhalias", randgen.TierMHAlias, 2_000), opts)
	if err != nil {
		t.Fatal(err)
	}
	speedup := dense.MedianNS / mh.MedianNS
	t.Logf("hmm K=100: dense %.0f ns/op, mhalias %.0f ns/op, speedup %.1fx", dense.MedianNS, mh.MedianNS, speedup)
	if speedup < 2 {
		t.Errorf("mhalias speedup over the dense K=100 sweep = %.1fx, want >= 2x", speedup)
	}
}
