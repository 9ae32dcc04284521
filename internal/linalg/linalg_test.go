package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasicOps(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := v.Add(w); got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); got[0] != 3 || got[1] != 3 || got[2] != 3 {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Norm2(); !almostEq(got, math.Sqrt(14), 1e-12) {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestVecCloneIndependence(t *testing.T) {
	v := Vec{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestVecAddTo(t *testing.T) {
	dst := Vec{1, 1}
	Vec{2, 3}.AddTo(dst)
	if dst[0] != 3 || dst[1] != 4 {
		t.Errorf("AddTo = %v", dst)
	}
}

func TestVecZeroAndScaleInPlace(t *testing.T) {
	v := Vec{1, 2, 3}
	v.ScaleInPlace(3)
	if v[1] != 6 {
		t.Errorf("ScaleInPlace = %v", v)
	}
	v.Zero()
	if v[0] != 0 || v[1] != 0 || v[2] != 0 {
		t.Errorf("Zero left %v", v)
	}
}

func TestMatAtSetEye(t *testing.T) {
	m := Eye(3)
	if m.At(1, 1) != 1 || m.At(0, 1) != 0 {
		t.Errorf("Eye wrong: %v", m.Data)
	}
	m.Set(0, 2, 7)
	if m.At(0, 2) != 7 {
		t.Errorf("Set/At broken")
	}
}

func TestMatDiagTrace(t *testing.T) {
	m := Diag(Vec{1, 2, 3})
	if m.Trace() != 6 {
		t.Errorf("Trace = %v", m.Trace())
	}
	if m.At(0, 1) != 0 || m.At(2, 2) != 3 {
		t.Errorf("Diag wrong")
	}
}

func TestMatMulVec(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	got := m.MulVec(Vec{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestMatMulMat(t *testing.T) {
	a := &Mat{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Mat{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	got := a.MulMat(b)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("MulMat = %v, want %v", got.Data, want)
		}
	}
}

func TestMatTranspose(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T dims %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("T values wrong: %v", tr.Data)
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMat(2, 2).AddOuter(1, Vec{1, 2}, Vec{3, 4})
	if m.At(1, 1) != 8 || m.At(0, 0) != 3 {
		t.Errorf("AddOuter on zero = %v", m.Data)
	}
	m.AddOuter(2, Vec{1, 0}, Vec{1, 1})
	if m.At(0, 0) != 5 || m.At(0, 1) != 6 {
		t.Errorf("AddOuter = %v", m.Data)
	}
}

func TestSymmetrize(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 2, Data: []float64{1, 2, 4, 1}}
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Errorf("Symmetrize = %v", m.Data)
	}
}

func TestMatAddSubScale(t *testing.T) {
	a := &Mat{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	b := &Mat{Rows: 1, Cols: 2, Data: []float64{3, 4}}
	if got := a.Add(b); got.Data[1] != 6 {
		t.Errorf("Add = %v", got.Data)
	}
	if got := b.Sub(a); got.Data[0] != 2 {
		t.Errorf("Sub = %v", got.Data)
	}
	a.Clone().ScaleInPlace(5)
	if a.Data[0] != 1 {
		t.Errorf("ScaleInPlace mutated source of clone")
	}
	c := a.Clone()
	c.AddInPlace(b)
	if c.Data[0] != 4 || a.Data[0] != 1 {
		t.Errorf("AddInPlace wrong or aliased")
	}
}

func TestRowSharesStorage(t *testing.T) {
	m := NewMat(2, 2)
	m.Row(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Errorf("Row does not alias storage")
	}
}

func TestDimensionPanics(t *testing.T) {
	cases := []func(){
		func() { Vec{1}.Dot(Vec{1, 2}) },
		func() { Vec{1}.Add(Vec{1, 2}) },
		func() { NewMat(2, 2).MulVec(Vec{1}) },
		func() { NewMat(2, 3).MulMat(NewMat(2, 3)) },
		func() { NewMat(2, 3).Trace() },
		func() { NewMat(2, 3).Symmetrize() },
		func() { NewMat(2, 2).AddInPlace(NewMat(3, 3)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// randomSPD builds an SPD matrix A = B*B^T + n*I from a seeded source.
func randomSPD(n int, seed int64) *Mat {
	r := rand.New(rand.NewSource(seed))
	b := NewMat(n, n)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	a := b.MulMat(b.T())
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += float64(n)
	}
	return a
}

func TestCholeskyRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10, 25} {
		a := randomSPD(n, int64(n))
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		back := l.MulMat(l.T())
		if d := back.MaxAbsDiff(a); d > 1e-9*float64(n) {
			t.Errorf("n=%d: round trip err %g", n, d)
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 1}} // eigenvalues 3, -1
	if _, err := Cholesky(m); err != ErrNotSPD {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
	if _, err := Cholesky(NewMat(2, 3)); err == nil {
		t.Errorf("expected error for non-square input")
	}
}

func TestCholSolve(t *testing.T) {
	a := randomSPD(6, 7)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := Vec{1, -2, 3, -4, 5, -6}
	b := a.MulVec(want)
	got := CholSolve(l, b)
	for i := range want {
		if !almostEq(got[i], want[i], 1e-8) {
			t.Fatalf("CholSolve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCholInverse(t *testing.T) {
	a := randomSPD(5, 11)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := CholInverse(l)
	prod := a.MulMat(inv)
	if d := prod.MaxAbsDiff(Eye(5)); d > 1e-8 {
		t.Errorf("A*inv(A) deviates from I by %g", d)
	}
}

func TestCholLogDet(t *testing.T) {
	a := Diag(Vec{2, 3, 4})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := CholLogDet(l), math.Log(24); !almostEq(got, want, 1e-12) {
		t.Errorf("CholLogDet = %v, want %v", got, want)
	}
}

// Property: for random SPD matrices, Cholesky exists and solving recovers
// arbitrary right-hand sides.
func TestQuickCholeskySolveProperty(t *testing.T) {
	f := func(seed int64, raw [4]float64) bool {
		a := randomSPD(4, seed)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := Vec{clampQ(raw[0]), clampQ(raw[1]), clampQ(raw[2]), clampQ(raw[3])}
		got := CholSolve(l, a.MulVec(x))
		for i := range x {
			if !almostEq(got[i], x[i], 1e-6*(1+math.Abs(x[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: (A^T)^T == A and (A*B)^T == B^T * A^T.
func TestQuickTransposeProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewMat(3, 4)
		b := NewMat(4, 2)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		if a.T().T().MaxAbsDiff(a) != 0 {
			return false
		}
		lhs := a.MulMat(b).T()
		rhs := b.T().MulMat(a.T())
		return lhs.MaxAbsDiff(rhs) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: an outer product added to zero applied to x is v scaled by
// w . x: (v w^T) x == v (w . x).
func TestQuickOuterProperty(t *testing.T) {
	f := func(v0, v1, w0, w1, x0, x1 float64) bool {
		v := Vec{clampQ(v0), clampQ(v1)}
		w := Vec{clampQ(w0), clampQ(w1)}
		x := Vec{clampQ(x0), clampQ(x1)}
		got := NewMat(2, 2).AddOuter(1, v, w).MulVec(x)
		want := v.Scale(w.Dot(x))
		for i := range got {
			if !almostEq(got[i], want[i], 1e-9*(1+math.Abs(want[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// clampQ maps arbitrary quick-generated floats into a sane range, squashing
// NaN/Inf and extreme magnitudes that would only test float overflow.
func clampQ(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 100)
}

// Property: for random SPD matrices of any small size, the Cholesky
// inverse is a two-sided inverse.
func TestQuickCholInverseIdentity(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%6) + 1
		a := randomSPD(n, seed)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		inv := CholInverse(l)
		return a.MulMat(inv).MaxAbsDiff(Eye(n)) < 1e-8 && inv.MulMat(a).MaxAbsDiff(Eye(n)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// SolveLower is forward substitution on the lower triangle only: entries
// above the diagonal are never read.
func TestSolveLower(t *testing.T) {
	l, err := Cholesky(randomSPD(5, 21))
	if err != nil {
		t.Fatal(err)
	}
	want := Vec{1, -2, 3, 0.5, -1}
	b := l.MulVec(want)
	for r := 0; r < 5; r++ {
		for c := r + 1; c < 5; c++ {
			l.Set(r, c, math.NaN())
		}
	}
	got := SolveLower(l, b)
	for i := range want {
		if !almostEq(got[i], want[i], 1e-10) {
			t.Fatalf("SolveLower = %v, want %v", got, want)
		}
	}
	// Solving in place over b gives the same bits.
	SolveLowerTo(b, l, b)
	for i := range got {
		if math.Float64bits(b[i]) != math.Float64bits(got[i]) {
			t.Fatalf("SolveLowerTo in place = %v, want %v", b, got)
		}
	}
}

// SolveUpperT solves against the transpose of the lower factor without
// forming it: L^T x = b.
func TestSolveUpperT(t *testing.T) {
	l, err := Cholesky(randomSPD(5, 22))
	if err != nil {
		t.Fatal(err)
	}
	want := Vec{0.25, 4, -1, 2, -3}
	b := l.T().MulVec(want)
	got := SolveUpperT(l, b)
	for i := range want {
		if !almostEq(got[i], want[i], 1e-10) {
			t.Fatalf("SolveUpperT = %v, want %v", got, want)
		}
	}
	// Solving in place over b gives the same bits.
	SolveUpperTTo(b, l, b)
	for i := range got {
		if math.Float64bits(b[i]) != math.Float64bits(got[i]) {
			t.Fatalf("SolveUpperTTo in place = %v, want %v", b, got)
		}
	}
}
