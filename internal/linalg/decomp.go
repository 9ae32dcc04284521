package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned by Cholesky when the input matrix is not symmetric
// positive definite (within numerical tolerance).
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

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
