// Package matrix implements the dense linear algebra needed by the OLS
// regression in internal/regress: matrix arithmetic, Householder QR
// factorization and least-squares solves.
//
// Matrices are row-major and sized at construction. The package favors
// clarity and numerical robustness over raw speed; problem sizes in this
// project are tiny (tens of rows, ≤ ~100 columns).
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Errors returned by matrix operations.
var (
	ErrShape    = errors.New("matrix: shape mismatch")
	ErrSingular = errors.New("matrix: singular or rank-deficient system")
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero rows×cols matrix. It panics on non-positive dimensions,
// which always indicates a programming error in this code base.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// RowView returns row i as a slice aliasing the matrix storage — writes
// through the slice mutate the matrix. It is the allocation-free access
// path for hot loops; use Row for a defensive copy.
func (m *Matrix) RowView(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Reset reshapes m to rows×cols, reusing the backing array when it has
// the capacity, and zeroes every element. It is how callers keep a
// long-lived scratch matrix across differently-sized problems without
// reallocating.
func (m *Matrix) Reset(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]float64, n)
	}
	m.data = m.data[:n]
	for i := range m.data {
		m.data[i] = 0
	}
	m.rows, m.cols = rows, cols
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%10.4g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// QR holds a Householder QR factorization A = Q·R with A m×n, m ≥ n.
// Q is represented implicitly by its Householder reflectors. A QR reused
// through FactorInto keeps its reflector storage and scratch buffers
// across factorizations; Solve and SolveInto share the same scratch, so
// a QR is not safe for concurrent use.
type QR struct {
	qr   *Matrix   // packed reflectors + R upper triangle
	rd   []float64 // diagonal of R
	m, n int
	sw   []float64 // reflector-application scratch, len n
	yw   []float64 // solve scratch, len m
}

// Factor computes the QR factorization of a (which must have at least as
// many rows as columns). The input is not modified.
func Factor(a *Matrix) (*QR, error) {
	f := &QR{}
	if err := FactorInto(f, a); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInto recomputes f as the QR factorization of a, reusing f's
// reflector storage and scratch buffers when capacity allows. It is the
// allocation-free path for callers that factor many same-shaped systems
// (the regression layer's per-fit workspace). The input is not modified.
func FactorInto(f *QR, a *Matrix) error {
	if a.rows < a.cols {
		return fmt.Errorf("%w: need rows >= cols, got %dx%d", ErrShape, a.rows, a.cols)
	}
	m, n := a.rows, a.cols
	if f.qr == nil {
		f.qr = a.Clone()
	} else {
		f.qr.Reset(m, n)
		copy(f.qr.data, a.data)
	}
	if cap(f.rd) < n {
		f.rd = make([]float64, n)
		f.sw = make([]float64, n)
	}
	if cap(f.yw) < m {
		f.yw = make([]float64, m)
	}
	f.rd = f.rd[:n]
	f.m, f.n = m, n
	qr := f.qr.data
	rd := f.rd
	for k := 0; k < n; k++ {
		// Two-pass scaled norm of the k-th column below the diagonal:
		// overflow-safe like a Hypot chain, without a libm call per
		// element.
		amax := 0.0
		for i := k; i < m; i++ {
			if v := math.Abs(qr[i*n+k]); v > amax {
				amax = v
			}
		}
		if amax == 0 {
			rd[k] = 0
			continue
		}
		sum := 0.0
		for i := k; i < m; i++ {
			v := qr[i*n+k] / amax
			sum += v * v
		}
		nrm := amax * math.Sqrt(sum)
		if qr[k*n+k] < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr[i*n+k] /= nrm
		}
		qr[k*n+k]++
		// Apply the reflector to all trailing columns at once: one
		// row-major sweep accumulates s = vᵀA, a second applies the
		// rank-1 update — contiguous row slices instead of a strided
		// pass per column.
		s := f.sw[:n-k-1]
		for j := range s {
			s[j] = 0
		}
		for i := k; i < m; i++ {
			row := qr[i*n : i*n+n]
			v := row[k]
			for j := k + 1; j < n; j++ {
				s[j-k-1] += v * row[j]
			}
		}
		vkk := qr[k*n+k]
		for j := range s {
			s[j] = -s[j] / vkk
		}
		for i := k; i < m; i++ {
			row := qr[i*n : i*n+n]
			v := row[k]
			for j := k + 1; j < n; j++ {
				row[j] += s[j-k-1] * v
			}
		}
		rd[k] = -nrm
	}
	return nil
}

// FullRank reports whether R has no (near-)zero diagonal entries, i.e. the
// factored matrix has full column rank to within tol (a relative threshold;
// pass 0 for an exact-zero test).
func (f *QR) FullRank(tol float64) bool {
	maxDiag := 0.0
	for _, d := range f.rd {
		if a := math.Abs(d); a > maxDiag {
			maxDiag = a
		}
	}
	thresh := tol * maxDiag
	for _, d := range f.rd {
		if math.Abs(d) <= thresh {
			return false
		}
	}
	return true
}

// rankTol is the relative diagonal threshold below which R is treated as
// rank deficient: comfortably above float64 round-off, far below any
// genuinely independent column.
const rankTol = 1e-10

// Solve finds x minimizing ‖A·x − b‖₂ via the factorization.
// It returns ErrSingular when A is rank-deficient (relative to rankTol).
func (f *QR) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto is Solve writing into a caller-owned slice of length Cols;
// it allocates nothing. x must not alias b.
func (f *QR) SolveInto(x, b []float64) error {
	if len(b) != f.m {
		return ErrShape
	}
	if len(x) != f.n {
		return ErrShape
	}
	if !f.FullRank(rankTol) {
		return ErrSingular
	}
	qr := f.qr.data
	y := f.yw[:f.m]
	copy(y, b)
	// Apply Qᵀ to b.
	for k := 0; k < f.n; k++ {
		vkk := qr[k*f.n+k]
		if vkk == 0 {
			continue
		}
		s := 0.0
		for i := k; i < f.m; i++ {
			s += qr[i*f.n+k] * y[i]
		}
		s = -s / vkk
		for i := k; i < f.m; i++ {
			y[i] += s * qr[i*f.n+k]
		}
	}
	// Back-substitute R·x = y.
	for k := f.n - 1; k >= 0; k-- {
		row := qr[k*f.n : k*f.n+f.n]
		s := y[k]
		for j := k + 1; j < f.n; j++ {
			s -= row[j] * x[j]
		}
		x[k] = s / f.rd[k]
	}
	return nil
}

// LeastSquares solves min ‖A·x − b‖₂ directly.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// SolveRidge solves the ridge-regularized least squares problem
// min ‖A·x − b‖₂² + λ‖x‖₂² by augmenting A with √λ·I. λ must be ≥ 0;
// a small positive λ makes rank-deficient systems solvable.
func SolveRidge(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, errors.New("matrix: negative ridge penalty")
	}
	if lambda == 0 {
		return LeastSquares(a, b)
	}
	if len(b) != a.rows {
		return nil, ErrShape
	}
	aug := New(a.rows+a.cols, a.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			aug.Set(i, j, a.At(i, j))
		}
	}
	sq := math.Sqrt(lambda)
	for j := 0; j < a.cols; j++ {
		aug.Set(a.rows+j, j, sq)
	}
	bb := make([]float64, a.rows+a.cols)
	copy(bb, b)
	return LeastSquares(aug, bb)
}
