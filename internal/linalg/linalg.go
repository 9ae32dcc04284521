// Package linalg provides the dense linear algebra kernels used by the MCMC
// samplers in this repository: vectors, row-major matrices, Cholesky and LU
// decompositions, triangular solves, inverses and determinants.
//
// The package is deliberately small and allocation-conscious rather than
// general: every routine exists because one of the five benchmark models
// (GMM, Bayesian Lasso, HMM, LDA, Gaussian imputation) needs it.
package linalg

import (
	"fmt"
	"math"
)

// Vec is a dense vector of float64s.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// AddTo sets dst = dst + v and returns dst. Panics if lengths differ.
func (v Vec) AddTo(dst Vec) Vec {
	checkLen(len(dst), len(v))
	for i, x := range v {
		dst[i] += x
	}
	return dst
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	checkLen(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Add returns v + w as a new vector.
func (v Vec) Add(w Vec) Vec {
	checkLen(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Scale returns a*v as a new vector.
func (v Vec) Scale(a float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = a * v[i]
	}
	return out
}

// ScaleInPlace multiplies every entry of v by a.
func (v Vec) ScaleInPlace(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Zero sets every entry of v to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// NewMat returns a zero Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on its diagonal.
func Diag(d Vec) *Mat {
	m := NewMat(len(d), len(d))
	for i, x := range d {
		m.Data[i*len(d)+i] = x
	}
	return m
}

// At returns the (r, c) entry.
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the (r, c) entry.
func (m *Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// AddInPlace sets m = m + b and returns m.
func (m *Mat) AddInPlace(b *Mat) *Mat {
	checkDims(m, b)
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
	return m
}

// Sub returns m - b as a new matrix.
func (m *Mat) Sub(b *Mat) *Mat {
	checkDims(m, b)
	out := NewMat(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - b.Data[i]
	}
	return out
}

// Add returns m + b as a new matrix.
func (m *Mat) Add(b *Mat) *Mat {
	checkDims(m, b)
	out := NewMat(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + b.Data[i]
	}
	return out
}

// ScaleInPlace multiplies every entry of m by a and returns m.
func (m *Mat) ScaleInPlace(a float64) *Mat {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	out := NewMat(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// MulVec returns m * v.
func (m *Mat) MulVec(v Vec) Vec {
	checkLen(m.Cols, len(v))
	out := make(Vec, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var s float64
		for c, x := range row {
			s += x * v[c]
		}
		out[r] = s
	}
	return out
}

// MulMat returns m * b.
func (m *Mat) MulMat(b *Mat) *Mat {
	checkLen(m.Cols, b.Rows)
	out := NewMat(m.Rows, b.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[r*m.Cols+k]
			if a == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			orow := out.Data[r*b.Cols : (r+1)*b.Cols]
			for c, x := range brow {
				orow[c] += a * x
			}
		}
	}
	return out
}

// AddOuter sets m = m + scale * v * w^T and returns m.
func (m *Mat) AddOuter(scale float64, v, w Vec) *Mat {
	checkLen(m.Rows, len(v))
	checkLen(m.Cols, len(w))
	for r, a := range v {
		addScaled(m.Data[r*m.Cols:(r+1)*m.Cols], scale*a, w)
	}
	return m
}

// AddGram sets m = m + sum_k xs[k] * xs[k]^T for a symmetric m and returns
// m: the Gram-matrix fold of a block of observations. It is bit-identical
// to calling AddOuter(1, x, x) for each x in order — every entry still
// receives its products one point at a time, in point order, and a zero
// coefficient is skipped as AddOuter skips it — but it accumulates only
// the lower triangle, four points per sweep of a row, and then mirrors
// it. Entries no point touches are never written, so an empty block or a
// block of all-zero points leaves m's memory untouched.
func (m *Mat) AddGram(xs []Vec) *Mat {
	n := m.Rows
	checkLen(n, m.Cols)
	for _, x := range xs {
		checkLen(n, len(x))
	}
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		x0, x1, x2, x3 := xs[k], xs[k+1], xs[k+2], xs[k+3]
		for i := 0; i < n; i++ {
			row := m.Data[i*n : i*n+i+1]
			a0, a1, a2, a3 := x0[i], x1[i], x2[i], x3[i]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for _, x := range xs[k : k+4] {
					addScaled(row, x[i], x)
				}
				continue
			}
			y0, y1, y2, y3 := x0[:len(row)], x1[:len(row)], x2[:len(row)], x3[:len(row)]
			for j, s := range row {
				s += a0 * y0[j]
				s += a1 * y1[j]
				s += a2 * y2[j]
				s += a3 * y3[j]
				row[j] = s
			}
		}
	}
	for _, x := range xs[k:] {
		for i := 0; i < n; i++ {
			addScaled(m.Data[i*n:i*n+i+1], x[i], x)
		}
	}
	for i := 1; i < n; i++ {
		if !anyNonzero(xs, i) {
			continue
		}
		for j, v := range m.Data[i*n : i*n+i] {
			m.Data[j*n+i] = v
		}
	}
	return m
}

// addScaled sets row = row + a*x[:len(row)], skipping a zero coefficient
// entirely.
func addScaled(row []float64, a float64, x Vec) {
	if a == 0 {
		return
	}
	x = x[:len(row)]
	for j := range row {
		row[j] += a * x[j]
	}
}

// anyNonzero reports whether some x in xs has a non-zero entry i.
func anyNonzero(xs []Vec, i int) bool {
	for _, x := range xs {
		if x[i] != 0 {
			return true
		}
	}
	return false
}

// Row returns row r of m as a Vec sharing m's storage.
func (m *Mat) Row(r int) Vec { return Vec(m.Data[r*m.Cols : (r+1)*m.Cols]) }

// Trace returns the trace of a square matrix.
func (m *Mat) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: Trace of non-square matrix")
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += m.Data[i*m.Cols+i]
	}
	return s
}

// Symmetrize sets m to (m + m^T)/2 in place, removing round-off asymmetry,
// and returns m. Panics if m is not square.
func (m *Mat) Symmetrize() *Mat {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize of non-square matrix")
	}
	n := m.Rows
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			avg := (m.Data[r*n+c] + m.Data[c*n+r]) / 2
			m.Data[r*n+c] = avg
			m.Data[c*n+r] = avg
		}
	}
	return m
}

// MaxAbsDiff returns the largest absolute entry-wise difference between m
// and b. Useful in tests.
func (m *Mat) MaxAbsDiff(b *Mat) float64 {
	checkDims(m, b)
	var worst float64
	for i := range m.Data {
		if d := math.Abs(m.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("linalg: dimension mismatch %d != %d", a, b))
	}
}

func checkDims(a, b *Mat) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d != %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
