package lda

import (
	"math"
	"testing"

	"mlbench/internal/models/sparse"
	"mlbench/internal/randgen"
)

func testHyper() Hyper { return Hyper{T: 3, V: 30, Alpha: 0.5, Beta: 0.1} }

func TestInitModel(t *testing.T) {
	rng := randgen.New(1)
	m := Init(rng, testHyper())
	if len(m.Phi) != 3 {
		t.Fatalf("topics = %d", len(m.Phi))
	}
	for _, phi := range m.Phi {
		var s float64
		for _, p := range phi {
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("phi sums to %v", s)
		}
	}
	if m.Bytes() != 8*3*30 {
		t.Errorf("Bytes = %d", m.Bytes())
	}
}

func TestInitDoc(t *testing.T) {
	rng := randgen.New(2)
	d := InitDoc(rng, []int{1, 2, 3}, testHyper())
	if len(d.Z) != 3 || len(d.Theta) != 3 {
		t.Fatalf("doc shapes wrong: %+v", d)
	}
	for _, z := range d.Z {
		if z < 0 || z >= 3 {
			t.Errorf("z = %d out of range", z)
		}
	}
}

func TestResampleZFollowsThetaPhi(t *testing.T) {
	rng := randgen.New(3)
	m := &Model{T: 2, V: 2}
	// Topic 0 only emits word 0; topic 1 only word 1.
	m.Phi = append(m.Phi, []float64{1, 0})
	m.Phi = append(m.Phi, []float64{0, 1})
	d := &Doc{Words: []int{0, 1, 0, 1}, Z: make([]int, 4), Theta: []float64{0.5, 0.5}}
	m.ResampleZ(rng, d)
	want := []int{0, 1, 0, 1}
	for i := range want {
		if d.Z[i] != want[i] {
			t.Errorf("z[%d] = %d, want %d", i, d.Z[i], want[i])
		}
	}
}

func TestResampleThetaTracksCounts(t *testing.T) {
	rng := randgen.New(4)
	d := &Doc{}
	h := Hyper{T: 3, V: 5, Alpha: 0.01, Beta: 0.1}
	// With near-zero alpha and heavy counts, theta should track counts.
	d.Z = make([]int, 10000)
	d.Words = make([]int, 10000)
	for i := range d.Z {
		d.Z[i] = 1
	}
	d.ResampleTheta(rng, h)
	if d.Theta[1] < 0.99 {
		t.Errorf("theta = %v, want concentration on topic 1", d.Theta)
	}
}

func TestWordCountsAccumulateMerge(t *testing.T) {
	a, b := sparse.New(4), sparse.New(4)
	(&Doc{Words: []int{0, 1}, Z: []int{0, 1}}).Tally(a, 1)
	(&Doc{Words: []int{1}, Z: []int{1}}).Tally(b, 2)
	a.Merge(b)
	c := NewWordCounts(2, 4)
	a.AddTo(c.G)
	c.Accumulate(&Doc{Words: []int{3}, Z: []int{0}}, 1)
	if c.G[0][0] != 1 || c.G[1][1] != 3 || c.G[0][3] != 1 {
		t.Errorf("counts = %v", c.G)
	}
}

func TestUpdatePhiConcentrates(t *testing.T) {
	rng := randgen.New(5)
	h := Hyper{T: 2, V: 4, Alpha: 1, Beta: 0.01}
	m := Init(rng, h)
	c := NewWordCounts(2, 4)
	for i := 0; i < 10000; i++ {
		c.G[0][2]++
	}
	m.UpdatePhi(rng, h, c)
	if m.Phi[0][2] < 0.95 {
		t.Errorf("phi[0][2] = %v, want ~1", m.Phi[0][2])
	}
}

func TestGibbsRecoversPlantedTopics(t *testing.T) {
	rng := randgen.New(6)
	// Plant 2 topics over 10 words: topic 0 = words 0-4, topic 1 = 5-9.
	truth := [][]float64{
		{0.2, 0.2, 0.2, 0.2, 0.2, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0.2, 0.2, 0.2, 0.2, 0.2},
	}
	h := Hyper{T: 2, V: 10, Alpha: 0.5, Beta: 0.5}
	var docs []*Doc
	for d := 0; d < 80; d++ {
		topic := d % 2
		words := make([]int, 50)
		for i := range words {
			words[i] = randgen.New(uint64(d*100 + i)).Categorical(truth[topic])
		}
		docs = append(docs, InitDoc(rng, words, h))
	}
	m := Init(rng, h)
	ll := func() float64 {
		var total float64
		for _, d := range docs {
			total += m.LogLikelihood(d)
		}
		return total
	}
	first := ll()
	for iter := 0; iter < 50; iter++ {
		counts := NewWordCounts(2, 10)
		for _, d := range docs {
			m.ResampleZ(rng, d)
			d.ResampleTheta(rng, h)
			counts.Accumulate(d, 1)
		}
		m.UpdatePhi(rng, h, counts)
	}
	last := ll()
	if last <= first+500 {
		t.Fatalf("likelihood barely improved: %v -> %v", first, last)
	}
	// Each learned topic should put >80% of its mass on one planted block.
	for t2 := 0; t2 < 2; t2++ {
		var low, high float64
		for w := 0; w < 5; w++ {
			low += m.Phi[t2][w]
		}
		for w := 5; w < 10; w++ {
			high += m.Phi[t2][w]
		}
		if low < 0.8 && high < 0.8 {
			t.Errorf("topic %d did not specialize: low=%v high=%v", t2, low, high)
		}
	}
}

func TestZFlopsPositive(t *testing.T) {
	if ZFlops(100) <= 0 {
		t.Error("ZFlops must be positive")
	}
}
