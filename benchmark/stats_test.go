package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{50, 30}, {90, 50}, {100, 50}, {20, 10}, {21, 20}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// The input is not reordered.
	if xs[0] != 50 || xs[4] != 30 {
		t.Errorf("percentile sorted its argument in place: %v", xs)
	}
}

// The guard behind "the highest percentile with at least ten samples
// beyond it": p90 needs 100 samples, p99 needs 1000, p50 needs 20.
func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false}, {180, 90, true},
		{1000, 99, true}, {999, 99, false},
		{20, 50, true}, {19, 50, false},
		{18, 90, false}, // a batch workload's child count: reported, not trusted
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(n=%d, p%v) = %v (beyond = %d), want %v", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// method the acceptance procedure uses. Expected values computed with
// Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5.0, 5.2, 5.1, 4.9, 5.6, 5.0, 5.3, 5.1, 4.8, 5.2}, 4.975, 5.225},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
}
