package matrix

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func mustFromRows(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); !errors.Is(err, ErrShape) {
		t.Errorf("FromRows(nil) err = %v", err)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Errorf("ragged err = %v", err)
	}
	if _, err := FromRows([][]float64{{}}); !errors.Is(err, ErrShape) {
		t.Errorf("empty row err = %v", err)
	}
}

func TestBasicAccessors(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v", m.At(2, 1))
	}
	m.Set(2, 1, 9)
	if m.At(2, 1) != 9 {
		t.Errorf("Set failed")
	}
	c := m.Col(1)
	if len(c) != 3 || c[0] != 2 || c[1] != 4 || c[2] != 9 {
		t.Errorf("Col(1) = %v", c)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestTranspose(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T shape = %dx%d", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("T values wrong:\n%s", tr)
	}
}

func TestMul(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{5, 6}, {7, 8}})
	p, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if p.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(New(3, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("Mul shape err = %v", err)
	}
}

func TestMulVec(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v", v)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec shape err = %v", err)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	a := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	p, err := a.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if p.At(i, j) != a.At(i, j) {
				t.Fatalf("A·I ≠ A")
			}
		}
	}
}

func TestString(t *testing.T) {
	s := Identity(2).String()
	if !strings.Contains(s, "1") || !strings.Contains(s, "\n") {
		t.Errorf("String() = %q", s)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Solve a well-determined 3x3 system exactly.
	a := mustFromRows(t, [][]float64{{2, 0, 1}, {0, 3, -1}, {1, 1, 1}})
	want := []float64{1, -2, 3}
	b, err := a.MulVec(want)
	if err != nil {
		t.Fatal(err)
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// y = 2 + 3t fit over noisy-free samples: must be recovered exactly.
	n := 10
	a := New(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		ti := float64(i)
		a.Set(i, 0, 1)
		a.Set(i, 1, ti)
		b[i] = 2 + 3*ti
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Errorf("fit = %v, want [2 3]", x)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The optimal residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(7))
	a := New(20, 4)
	b := make([]float64, 20)
	for i := 0; i < 20; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	res := make([]float64, len(b))
	for i := range b {
		res[i] = b[i] - ax[i]
	}
	for j := 0; j < 4; j++ {
		d, _ := Dot(a.Col(j), res)
		if math.Abs(d) > 1e-8 {
			t.Errorf("residual not orthogonal to col %d: %v", j, d)
		}
	}
}

func TestFactorShapeError(t *testing.T) {
	if _, err := Factor(New(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("Factor wide err = %v", err)
	}
}

func TestSolveSingular(t *testing.T) {
	// Two identical columns: rank deficient.
	a := mustFromRows(t, [][]float64{{1, 1}, {2, 2}, {3, 3}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.FullRank(1e-12) {
		t.Error("FullRank = true for rank-deficient matrix")
	}
	if _, err := f.Solve([]float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("Solve singular err = %v", err)
	}
}

func TestSolveWrongLength(t *testing.T) {
	f, err := Factor(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("Solve short err = %v", err)
	}
}

func TestFullRank(t *testing.T) {
	f, err := Factor(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if !f.FullRank(1e-12) {
		t.Error("identity not full rank")
	}
}

func TestSolveRidge(t *testing.T) {
	// Rank-deficient system becomes solvable with λ > 0.
	a := mustFromRows(t, [][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := []float64{2, 4, 6}
	x, err := SolveRidge(a, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// By symmetry the ridge solution splits the weight evenly.
	if math.Abs(x[0]-x[1]) > 1e-6 {
		t.Errorf("ridge solution asymmetric: %v", x)
	}
	ax, _ := a.MulVec(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-3 {
			t.Errorf("ridge fit poor: Ax=%v b=%v", ax, b)
		}
	}
	if _, err := SolveRidge(a, b, -1); err == nil {
		t.Error("negative lambda should fail")
	}
	if _, err := SolveRidge(a, []float64{1}, 1); !errors.Is(err, ErrShape) {
		t.Errorf("ridge shape err = %v", err)
	}
	// λ = 0 falls through to plain least squares.
	if _, err := SolveRidge(a, b, 0); !errors.Is(err, ErrSingular) {
		t.Errorf("ridge λ=0 singular err = %v", err)
	}
}

func TestRidgeShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(30, 3)
	b := make([]float64, 30)
	for i := 0; i < 30; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64() * 5
	}
	x0, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := SolveRidge(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(x1) >= Norm2(x0) {
		t.Errorf("ridge did not shrink: %v vs %v", Norm2(x1), Norm2(x0))
	}
}

func TestNorm2Dot(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v", got)
	}
	d, err := Dot([]float64{1, 2}, []float64{3, 4})
	if err != nil || d != 11 {
		t.Errorf("Dot = %v, %v", d, err)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("Dot shape err = %v", err)
	}
}

// Property-style test: QR solve matches solving the normal equations on
// random well-conditioned systems.
func TestQRRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		rows := 5 + rng.Intn(20)
		cols := 1 + rng.Intn(4)
		if cols > rows {
			cols = rows
		}
		a := New(rows, cols)
		truth := make([]float64, cols)
		for j := range truth {
			truth[j] = rng.NormFloat64() * 3
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		b, _ := a.MulVec(truth)
		x, err := LeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j := range truth {
			if math.Abs(x[j]-truth[j]) > 1e-8 {
				t.Fatalf("trial %d: x=%v truth=%v", trial, x, truth)
			}
		}
	}
}
