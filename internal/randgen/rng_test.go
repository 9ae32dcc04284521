package randgen

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := true
	a42 := New(42)
	for i := 0; i < 10; i++ {
		if a42.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	s1 := root.Split(1)
	s2 := root.Split(2)
	s1b := New(7).Split(1)
	for i := 0; i < 50; i++ {
		if s1.Uint64() != s1b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
	// Streams from different ids should differ.
	s1 = New(7).Split(1)
	diff := false
	for i := 0; i < 20; i++ {
		if s1.Uint64() != s2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Split(1) and Split(2) produced identical streams")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(5)
	b := New(5)
	a.Split(9)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := New(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) did not hit all values in 1000 draws: %v", seen)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	r.Intn(0)
}

func TestPerm(t *testing.T) {
	r := New(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// moments estimates the sample mean and variance of n draws.
func moments(n int, draw func() float64) (mean, variance float64) {
	var s, s2 float64
	for i := 0; i < n; i++ {
		x := draw()
		s += x
		s2 += x * x
	}
	mean = s / float64(n)
	variance = s2/float64(n) - mean*mean
	return
}

func TestNormMoments(t *testing.T) {
	r := New(11)
	mean, v := moments(200000, r.Norm)
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %v", mean)
	}
	if math.Abs(v-1) > 0.02 {
		t.Errorf("Norm variance = %v", v)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(12)
	mean, v := moments(100000, func() float64 { return r.Normal(3, 2) })
	if math.Abs(mean-3) > 0.03 {
		t.Errorf("Normal mean = %v, want 3", mean)
	}
	if math.Abs(v-4) > 0.1 {
		t.Errorf("Normal variance = %v, want 4", v)
	}
}

func TestNormalPanicsOnNegativeSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Normal(0, -1)
}
