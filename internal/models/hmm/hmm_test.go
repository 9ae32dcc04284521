package hmm

import (
	"math"
	"testing"
	"testing/quick"

	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
)

func testHyper() Hyper { return Hyper{K: 3, V: 20, Alpha: 1, Beta: 0.5} }

func TestInitShapesAndSimplex(t *testing.T) {
	rng := randgen.New(1)
	m := Init(rng, testHyper())
	if len(m.Delta) != 3 || len(m.Psi) != 3 || len(m.Delta0) != 3 {
		t.Fatalf("shapes wrong")
	}
	check := func(v linalg.Vec, n int) {
		if len(v) != n {
			t.Fatalf("vector length %d, want %d", len(v), n)
		}
		var s float64
		for _, x := range v {
			s += x
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("distribution sums to %v", s)
		}
	}
	check(m.Delta0, 3)
	check(m.Delta[1], 3)
	check(m.Psi[2], 20)
}

func TestInitStates(t *testing.T) {
	rng := randgen.New(2)
	words := []int{1, 2, 3, 4, 5}
	states := InitStates(rng, words, 3)
	if len(states) != 5 {
		t.Fatalf("len = %d", len(states))
	}
	for _, s := range states {
		if s < 0 || s >= 3 {
			t.Errorf("state %d out of range", s)
		}
	}
}

func TestResampleAlternatesParity(t *testing.T) {
	rng := randgen.New(3)
	m := Init(rng, testHyper())
	words := []int{0, 1, 2, 3, 4, 5}
	states := []int{0, 0, 0, 0, 0, 0}
	// Even iteration updates even (1-based) positions = indices 1,3,5.
	snapshot := append([]int{}, states...)
	m.ResampleStatesScratch(rng, words, states, 0, &Scratch{})
	for i := 0; i < len(states); i += 2 {
		if states[i] != snapshot[i] {
			t.Errorf("even iteration modified odd (1-based) position %d", i+1)
		}
	}
	// Odd iteration updates indices 0,2,4.
	snapshot = append([]int{}, states...)
	m.ResampleStatesScratch(rng, words, states, 1, &Scratch{})
	for i := 1; i < len(states); i += 2 {
		if states[i] != snapshot[i] {
			t.Errorf("odd iteration modified even (1-based) position %d", i+1)
		}
	}
}

func TestResampleStatesValidRange(t *testing.T) {
	rng := randgen.New(4)
	m := Init(rng, testHyper())
	words := make([]int, 50)
	for i := range words {
		words[i] = rng.Intn(20)
	}
	states := InitStates(rng, words, 3)
	for iter := 0; iter < 6; iter++ {
		m.ResampleStatesScratch(rng, words, states, iter, &Scratch{})
		for _, s := range states {
			if s < 0 || s >= 3 {
				t.Fatalf("state %d out of range", s)
			}
		}
	}
}

// total folds partials into a fresh dense total.
func total(k, v int, ps ...*Partial) *Counts {
	c := NewCounts(k, v)
	for _, p := range ps {
		c.Fold(p)
	}
	return c
}

func TestCountsAccumulate(t *testing.T) {
	p := NewPartial(2, 5)
	words := []int{0, 3, 3}
	states := []int{1, 0, 1}
	p.Accumulate(words, states, 1)
	p.Accumulate(nil, nil, 1) // an empty document is a no-op
	if p.emit.Len() != 3 {
		t.Errorf("touched %d emission entries, want 3", p.emit.Len())
	}
	c := total(2, 5, p)
	if c.Start[1] != 1 || c.Start[0] != 0 {
		t.Errorf("Start = %v", c.Start)
	}
	if c.Emit[1][0] != 1 || c.Emit[0][3] != 1 || c.Emit[1][3] != 1 {
		t.Errorf("Emit = %v", c.Emit)
	}
	if c.Trans[1][0] != 1 || c.Trans[0][1] != 1 {
		t.Errorf("Trans = %v", c.Trans)
	}
	// Weighted accumulation.
	p2 := NewPartial(2, 5)
	p2.Accumulate(words, states, 3)
	if c2 := total(2, 5, p2); c2.Start[1] != 3 {
		t.Errorf("weighted Start = %v", c2.Start)
	}
}

func TestCountsMerge(t *testing.T) {
	a, b := NewPartial(2, 3), NewPartial(2, 3)
	a.Accumulate([]int{0, 1}, []int{0, 1}, 1)
	b.Accumulate([]int{2}, []int{1}, 1)
	a.Merge(b)
	if c := total(2, 3, a); c.Emit[1][2] != 1 || c.Start[0] != 1 || c.Start[1] != 1 {
		t.Errorf("merge wrong: %+v", c)
	}
}

func TestUpdateModelUsesCounts(t *testing.T) {
	rng := randgen.New(5)
	h := Hyper{K: 2, V: 4, Alpha: 0.01, Beta: 0.01}
	m := Init(rng, h)
	c := NewCounts(2, 4)
	// State 0 overwhelmingly emits word 3.
	for i := 0; i < 10000; i++ {
		c.Emit[0][3]++
	}
	m.UpdateModel(rng, h, c)
	if m.Psi[0][3] < 0.95 {
		t.Errorf("Psi[0][3] = %v, want ~1", m.Psi[0][3])
	}
}

func TestGibbsLearnsPlantedStructure(t *testing.T) {
	// Plant a 2-state HMM with nearly deterministic emissions and
	// transitions; the sampler should reach a much higher joint
	// likelihood than its random initialization.
	rng := randgen.New(6)
	truth := &Model{
		K:      2,
		V:      4,
		Delta0: linalg.Vec{1, 0},
		Delta:  []linalg.Vec{{0.05, 0.95}, {0.95, 0.05}},
		Psi:    []linalg.Vec{{0.45, 0.45, 0.05, 0.05}, {0.05, 0.05, 0.45, 0.45}},
	}
	var docs [][]int
	var states [][]int
	for d := 0; d < 60; d++ {
		n := 40
		words := make([]int, n)
		s := 0
		for i := 0; i < n; i++ {
			if i > 0 {
				s = rng.Categorical(truth.Delta[s])
			}
			words[i] = rng.Categorical(truth.Psi[s])
		}
		docs = append(docs, words)
		states = append(states, InitStates(rng, words, 2))
	}
	h := Hyper{K: 2, V: 4, Alpha: 1, Beta: 1}
	m := Init(rng, h)
	ll := func() float64 {
		var total float64
		for d := range docs {
			total += m.LogLikelihood(docs[d], states[d])
		}
		return total
	}
	first := ll()
	for iter := 0; iter < 40; iter++ {
		p := NewPartial(2, 4)
		for d := range docs {
			m.ResampleStatesScratch(rng, docs[d], states[d], iter, &Scratch{})
			p.Accumulate(docs[d], states[d], 1)
		}
		m.UpdateModel(rng, h, total(2, 4, p))
	}
	last := ll()
	if last <= first+100 {
		t.Errorf("likelihood barely improved: %v -> %v", first, last)
	}
}

func TestLogLikelihoodEmptyDoc(t *testing.T) {
	rng := randgen.New(7)
	m := Init(rng, testHyper())
	if ll := m.LogLikelihood(nil, nil); ll != 0 {
		t.Errorf("empty doc ll = %v", ll)
	}
}

func TestStateFlopsPositive(t *testing.T) {
	if StateFlops(20) <= 0 {
		t.Error("StateFlops must be positive")
	}
}

// Property: counts accumulated doc-by-doc equal counts accumulated after
// merging arbitrary splits.
func TestQuickCountsMergeEquivalence(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		words := make([]int, len(raw))
		states := make([]int, len(raw))
		for i, r := range raw {
			words[i] = int(r) % 5
			states[i] = int(r) % 2
		}
		whole := NewPartial(2, 5)
		whole.Accumulate(words, states, 1)
		// Two docs accumulated into separate counts then merged differ
		// from the single-doc result only in Start/Trans at the split,
		// so instead check weight linearity: w=2 equals two w=1 passes.
		tw := NewPartial(2, 5)
		tw.Accumulate(words, states, 2)
		db := NewPartial(2, 5)
		db.Accumulate(words, states, 1)
		db.Merge(whole)
		twice, double := total(2, 5, tw), total(2, 5, db)
		for s := 0; s < 2; s++ {
			if twice.Emit[s].Sub(double.Emit[s]).Norm2() > 1e-9 {
				return false
			}
			if twice.Trans[s].Sub(double.Trans[s]).Norm2() > 1e-9 {
				return false
			}
		}
		return twice.Start.Sub(double.Start).Norm2() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// One Scratch reused across documents of different lengths draws exactly
// what a fresh Scratch per document draws: the buffer carries no state.
func TestResampleStatesScratchReuse(t *testing.T) {
	m := Init(randgen.New(8), testHyper())
	docs := [][]int{make([]int, 40), make([]int, 7), make([]int, 25)}
	gen := randgen.New(9)
	for _, d := range docs {
		for i := range d {
			d[i] = gen.Intn(20)
		}
	}
	run := func(shared bool) [][]int {
		rng := randgen.New(10)
		var sc Scratch
		var out [][]int
		for iter := 0; iter < 4; iter++ {
			for _, words := range docs {
				states := InitStates(randgen.New(uint64(len(words))), words, 3)
				if shared {
					m.ResampleStatesScratch(rng, words, states, iter, &sc)
				} else {
					m.ResampleStatesScratch(rng, words, states, iter, &Scratch{})
				}
				out = append(out, states)
			}
		}
		return out
	}
	a, b := run(true), run(false)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("draw %d position %d: reused scratch %d, fresh scratch %d", i, j, a[i][j], b[i][j])
			}
		}
	}
}
