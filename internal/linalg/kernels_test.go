package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gramPoints draws count points of dimension n; every third coordinate of
// every other point is an exact zero (and one point is all zeros when
// count > 2), so AddOuter's zero-coefficient skip is exercised.
func gramPoints(n, count int, seed int64) []Vec {
	r := rand.New(rand.NewSource(seed))
	xs := make([]Vec, count)
	for k := range xs {
		x := make(Vec, n)
		for i := range x {
			x[i] = r.NormFloat64()
			if k%2 == 1 && i%3 == 0 {
				x[i] = 0
			}
		}
		if count > 2 && k == count/2 {
			x.Zero()
		}
		xs[k] = x
	}
	return xs
}

// addOuterGram is the reference AddGram must match bit for bit.
func addOuterGram(m *Mat, xs []Vec) {
	for _, x := range xs {
		m.AddOuter(1, x, x)
	}
}

func sameBits(a, b *Mat) (int, bool) {
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestAddGramMatchesAddOuterBits(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 64, 203} {
		for _, count := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 32} {
			t.Run(fmt.Sprintf("n=%d/points=%d", n, count), func(t *testing.T) {
				xs := gramPoints(n, count, int64(1000*n+count))
				want, got := NewMat(n, n), NewMat(n, n)
				addOuterGram(want, xs)
				got.AddGram(xs)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("entry (%d,%d): AddGram %v, AddOuter %v", i/n, i%n, got.Data[i], want.Data[i])
				}
				// Chained: a second block folded onto the accumulated m.
				more := gramPoints(n, count+3, int64(7*n+count))
				addOuterGram(want, more)
				got.AddGram(more)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("chained entry (%d,%d): AddGram %v, AddOuter %v", i/n, i%n, got.Data[i], want.Data[i])
				}
			})
		}
	}
}

// signedZeroPoints draws count points of dimension n with exact zeros
// and negative zeros planted as coefficients: every other point has +0
// at each third coordinate, every third point -0 at coordinates 1 mod 4,
// so a four-point group with a zero in it takes AddGram's one-at-a-time
// fallback and both signs of zero hit its zero-skip.
func signedZeroPoints(n, count int, seed int64) []Vec {
	xs := gramPoints(n, count, seed)
	for k, x := range xs {
		for i := range x {
			if k%3 == 1 && i%4 == 1 {
				x[i] = math.Copysign(0, -1)
			}
		}
	}
	return xs
}

// GramRow on a fresh row reproduces AddGram's lower-triangle entry (i, j),
// its mirrored entry (j, i) and the AddOuter reference, and on a row already holding a block's
// fold it reproduces AddGram chained onto that block, bit for bit, for
// blocks of 0-9 points at dimensions that are not multiples of 4.
func TestGramRowMatchesAddGram(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 13, 30, 67} {
		for count := 0; count <= 9; count++ {
			t.Run(fmt.Sprintf("n=%d/points=%d", n, count), func(t *testing.T) {
				xs := signedZeroPoints(n, count, int64(100*n+count))
				more := signedZeroPoints(n, 9-count, int64(31*n+count))
				once, twice, ref := NewMat(n, n), NewMat(n, n), NewMat(n, n)
				once.AddGram(xs)
				addOuterGram(ref, xs)
				twice.AddGram(xs).AddGram(more)
				for i := 0; i < n; i++ {
					row := make([]float64, i+1)
					GramRow(row, xs, i)
					for j, v := range row {
						b := math.Float64bits(v)
						if b != math.Float64bits(once.At(i, j)) || b != math.Float64bits(once.At(j, i)) || b != math.Float64bits(ref.At(i, j)) {
							t.Fatalf("entry (%d,%d): GramRow %v, AddGram %v / %v, AddOuter %v", i, j, v, once.At(i, j), once.At(j, i), ref.At(i, j))
						}
					}
					GramRow(row, more, i)
					for j, v := range row {
						if math.Float64bits(v) != math.Float64bits(twice.At(i, j)) {
							t.Fatalf("chained entry (%d,%d): GramRow %v, AddGram %v", i, j, v, twice.At(i, j))
						}
					}
				}
			})
		}
	}
}

func TestAddGramWritesNothingWithoutContributions(t *testing.T) {
	// An asymmetric m exposes any write: mirroring would overwrite the
	// upper triangle with the lower.
	const n = 6
	m := NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	before := m.Clone()
	m.AddGram(nil)
	m.AddGram([]Vec{NewVec(n), NewVec(n), NewVec(n), NewVec(n), NewVec(n)})
	if i, ok := sameBits(m, before); !ok {
		t.Fatalf("entry (%d,%d) written: %v -> %v", i/n, i%n, before.Data[i], m.Data[i])
	}
}

func TestAddGramAllocatesNothing(t *testing.T) {
	xs := gramPoints(16, 11, 3)
	m := NewMat(16, 16)
	if a := testing.AllocsPerRun(20, func() { m.AddGram(xs) }); a != 0 {
		t.Errorf("AddGram allocates %v times per call", a)
	}
}

func TestAddGramDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for a point of the wrong length")
		}
	}()
	NewMat(3, 3).AddGram([]Vec{{1, 2}})
}

// choleskyReference is the Cholesky loop as it stood before the kernel
// read row sub-slices; Cholesky must reproduce it bit for bit.
func choleskyReference(m *Mat) (*Mat, error) {
	n := m.Rows
	l := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := m.Data[i*n+j]
			for k := 0; k < j; k++ {
				s -= l.Data[i*n+k] * l.Data[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotSPD
				}
				l.Data[i*n+i] = math.Sqrt(s)
			} else {
				l.Data[i*n+j] = s / l.Data[j*n+j]
			}
		}
	}
	return l, nil
}

func TestCholeskyMatchesReferenceBits(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 17, 64, 203} {
		a := randomSPD(n, int64(31*n))
		want, err := choleskyReference(a)
		if err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		got, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("n=%d entry (%d,%d): %v, reference %v", n, i/n, i%n, got.Data[i], want.Data[i])
		}
	}
	// Both reject the same indefinite matrix.
	bad := &Mat{Rows: 3, Cols: 3, Data: []float64{4, 2, 0, 2, 1, 0, 0, 0, 1}}
	if _, err := choleskyReference(bad); err != ErrNotSPD {
		t.Fatalf("reference accepted a singular matrix: %v", err)
	}
	if _, err := Cholesky(bad); err != ErrNotSPD {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
}
