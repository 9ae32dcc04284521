package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned by Cholesky when the input matrix is not symmetric
// positive definite (within numerical tolerance).
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// ErrSingular is returned by LU-based routines when the matrix is singular.
var ErrSingular = errors.New("linalg: matrix is singular")

// Cholesky computes the lower-triangular factor L of a symmetric positive
// definite matrix m such that L * L^T == m. Only the lower triangle of m is
// read. It returns ErrNotSPD if a non-positive pivot is encountered.
func Cholesky(m *Mat) (*Mat, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	l := NewMat(n, n)
	for i := 0; i < n; i++ {
		li := l.Data[i*n : i*n+i+1]
		mi := m.Data[i*n : i*n+i+1]
		for j := range li {
			lj := l.Data[j*n : j*n+j+1]
			s := mi[j]
			lik := li[:j]
			for k, v := range lj[:j] {
				s -= lik[k] * v
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotSPD
				}
				li[j] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
	}
	return l, nil
}

// SolveLower solves L*x = b for lower-triangular L by forward substitution.
func SolveLower(l *Mat, b Vec) Vec {
	n := l.Rows
	checkLen(n, len(b))
	x := make(Vec, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*n : i*n+i]
		for k, v := range row {
			s -= v * x[k]
		}
		x[i] = s / l.Data[i*n+i]
	}
	return x
}

// SolveUpperT solves L^T*x = b for lower-triangular L (so L^T is upper
// triangular) by back substitution.
func SolveUpperT(l *Mat, b Vec) Vec {
	n := l.Rows
	checkLen(n, len(b))
	x := make(Vec, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.Data[k*n+i] * x[k]
		}
		x[i] = s / l.Data[i*n+i]
	}
	return x
}

// CholSolve solves m*x = b given the Cholesky factor L of m.
func CholSolve(l *Mat, b Vec) Vec {
	return SolveUpperT(l, SolveLower(l, b))
}

// CholInverse returns the inverse of the SPD matrix whose Cholesky factor
// is l, by solving against the identity columns.
func CholInverse(l *Mat) *Mat {
	n := l.Rows
	inv := NewMat(n, n)
	e := make(Vec, n)
	for c := 0; c < n; c++ {
		e.Zero()
		e[c] = 1
		x := CholSolve(l, e)
		for r := 0; r < n; r++ {
			inv.Data[r*n+c] = x[r]
		}
	}
	return inv.Symmetrize()
}

// CholLogDet returns log(det(m)) for the SPD matrix whose Cholesky factor
// is l: 2 * sum(log(diag(L))).
func CholLogDet(l *Mat) float64 {
	var s float64
	n := l.Rows
	for i := 0; i < n; i++ {
		s += math.Log(l.Data[i*n+i])
	}
	return 2 * s
}

// LU holds an LU decomposition with partial pivoting: P*A = L*U, where L is
// unit lower triangular and U is upper triangular, packed into LU.
type LU struct {
	lu   *Mat
	piv  []int
	sign float64 // determinant sign from row swaps
}

// NewLU factors a square matrix a. It returns ErrSingular if a pivot is
// exactly zero.
func NewLU(a *Mat) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: LU of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		max := math.Abs(lu.Data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.Data[r*n+col]); v > max {
				max, p = v, r
			}
		}
		if max == 0 {
			return nil, ErrSingular
		}
		if p != col {
			rowP := lu.Data[p*n : (p+1)*n]
			rowC := lu.Data[col*n : (col+1)*n]
			for k := 0; k < n; k++ {
				rowP[k], rowC[k] = rowC[k], rowP[k]
			}
			piv[p], piv[col] = piv[col], piv[p]
			sign = -sign
		}
		pivot := lu.Data[col*n+col]
		for r := col + 1; r < n; r++ {
			f := lu.Data[r*n+col] / pivot
			lu.Data[r*n+col] = f
			if f == 0 {
				continue
			}
			for k := col + 1; k < n; k++ {
				lu.Data[r*n+k] -= f * lu.Data[col*n+k]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A*x = b using the factorization.
func (f *LU) Solve(b Vec) Vec {
	n := f.lu.Rows
	checkLen(n, len(b))
	x := make(Vec, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward: L*y = Pb (unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= f.lu.Data[i*n+k] * x[k]
		}
		x[i] = s
	}
	// Back: U*x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= f.lu.Data[i*n+k] * x[k]
		}
		x[i] = s / f.lu.Data[i*n+i]
	}
	return x
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := f.sign
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.Data[i*n+i]
	}
	return d
}

// Inverse returns the inverse of a general square matrix, or ErrSingular.
func Inverse(a *Mat) (*Mat, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := NewMat(n, n)
	e := make(Vec, n)
	for c := 0; c < n; c++ {
		e.Zero()
		e[c] = 1
		x := f.Solve(e)
		for r := 0; r < n; r++ {
			inv.Data[r*n+c] = x[r]
		}
	}
	return inv, nil
}

// Solve solves A*x = b for general square A, or returns ErrSingular.
func Solve(a *Mat, b Vec) (Vec, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
