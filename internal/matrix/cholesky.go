// Cholesky factorization of symmetric positive-definite systems — the
// fast path for normal-equations ("Gram matrix") least-squares solves.
//
// The regression layer accumulates G = XᵀX and c = Xᵀy once per dataset
// and then answers every shrinking-feature-set fit from the Gram matrix
// alone. Two properties make that fast here:
//
//   - Factor is the right-looking (outer-product) form, so the inner
//     update sweeps contiguous row slices of the factor — cache-friendly
//     in this package's row-major layout.
//   - Downdate removes one row/column from an existing factorization in
//     O(k²) by a Givens sweep, instead of refactoring in O(k³). That is
//     what turns recursive feature elimination into one Gram pass plus
//     O(w³) total solve work.
package matrix

import "math"

// cholPivotTol is the relative pivot threshold below which the matrix is
// treated as numerically indefinite. Pivots live on the *squared* column
// scale, so round-off for an exactly dependent column floors near
// eps·‖col‖² ≈ 1e-16 relative; 1e-14 sits above that floor while staying
// far below any genuinely independent pivot.
const cholPivotTol = 1e-14

// Cholesky is an upper-triangular factorization G = RᵀR of a symmetric
// positive-definite n×n matrix. The zero value is ready to use; Factor
// reuses the receiver's storage across calls, so a long-lived Cholesky
// allocates only when the problem grows. A Cholesky is not safe for
// concurrent use.
type Cholesky struct {
	data   []float64 // row-major factor storage, row i at data[i*stride:]
	stride int       // allocated row width (≥ n; survives Downdate)
	n      int       // current factored dimension
}

// row returns the backing slice of factor row i, truncated to the
// current dimension.
func (c *Cholesky) row(i int) []float64 {
	return c.data[i*c.stride : i*c.stride+c.n]
}

// Factor computes the factorization of g, reusing the receiver's storage
// when capacity allows. It returns ErrSingular when g is not numerically
// positive definite (relative to cholPivotTol); the receiver is then
// unusable until the next successful Factor.
func (c *Cholesky) Factor(g *Matrix) error { return c.FactorRidge(g, 0) }

// FactorRidge factors g + λI without materializing the shifted matrix.
// A positive λ is the ridge-stabilized path for singular or
// underdetermined normal equations.
func (c *Cholesky) FactorRidge(g *Matrix, lambda float64) error {
	if g.rows != g.cols {
		return ErrShape
	}
	n := g.rows
	c.reset(n)
	// Load the upper triangle of g (+λ on the diagonal) and find the
	// dominant diagonal entry for the relative pivot test.
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		src := g.data[i*g.cols : (i+1)*g.cols]
		dst := c.row(i)
		copy(dst[i:], src[i:])
		dst[i] += lambda
		if d := math.Abs(dst[i]); d > maxDiag {
			maxDiag = d
		}
	}
	thresh := cholPivotTol * maxDiag
	// Right-looking factorization: scale the pivot row, then subtract its
	// outer product from the trailing submatrix, one contiguous row at a
	// time.
	for k := 0; k < n; k++ {
		rk := c.row(k)
		d := rk[k]
		if d <= thresh || math.IsNaN(d) {
			return ErrSingular
		}
		d = math.Sqrt(d)
		rk[k] = d
		for j := k + 1; j < n; j++ {
			rk[j] /= d
		}
		for i := k + 1; i < n; i++ {
			v := rk[i]
			if v == 0 {
				continue
			}
			ri := c.row(i)
			for j := i; j < n; j++ {
				ri[j] -= v * rk[j]
			}
		}
	}
	return nil
}

// reset prepares n×n factor storage, reusing the backing array when it
// is large enough, and zeroes the active region.
func (c *Cholesky) reset(n int) {
	if c.stride < n {
		c.data = make([]float64, n*n)
		c.stride = n
	}
	c.n = n
	for i := 0; i < n; i++ {
		row := c.row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// SolveInto solves G·x = b through the factorization, writing the
// solution into x (which must not alias b). Both slices must have length
// Size.
func (c *Cholesky) SolveInto(x, b []float64) error {
	n := c.n
	if len(x) != n || len(b) != n {
		return ErrShape
	}
	copy(x, b)
	// Forward-substitute Rᵀ·y = b, pushing each resolved y_k through the
	// remainder of its contiguous factor row.
	for k := 0; k < n; k++ {
		rk := c.row(k)
		x[k] /= rk[k]
		v := x[k]
		for j := k + 1; j < n; j++ {
			x[j] -= v * rk[j]
		}
	}
	// Back-substitute R·x = y.
	for k := n - 1; k >= 0; k-- {
		rk := c.row(k)
		s := x[k]
		for j := k + 1; j < n; j++ {
			s -= rk[j] * x[j]
		}
		x[k] = s / rk[k]
	}
	return nil
}

// Downdate removes row and column j from the factored matrix: after the
// call the receiver holds the factorization of the principal submatrix
// of G with index j deleted, in O((n−j)·n) time. Deleting column j of R
// leaves an upper-Hessenberg matrix whose subdiagonal is annihilated by
// a sweep of Givens rotations; the rotated last row vanishes and is
// dropped.
func (c *Cholesky) Downdate(j int) error {
	n := c.n
	if j < 0 || j >= n {
		return ErrShape
	}
	// Delete column j: shift each row's tail left by one.
	for i := 0; i < n; i++ {
		ri := c.row(i)
		copy(ri[j:n-1], ri[j+1:n])
		ri[n-1] = 0
	}
	// Givens sweep: zero the subdiagonal entries introduced by the shift.
	for k := j; k < n-1; k++ {
		rk := c.row(k)
		rk1 := c.row(k + 1)
		a, b := rk[k], rk1[k]
		if b == 0 {
			continue
		}
		r := math.Hypot(a, b)
		cs, sn := a/r, b/r
		rk[k], rk1[k] = r, 0
		for t := k + 1; t < n-1; t++ {
			x, y := rk[t], rk1[t]
			rk[t] = cs*x + sn*y
			rk1[t] = cs*y - sn*x
		}
	}
	c.n = n - 1
	return nil
}
