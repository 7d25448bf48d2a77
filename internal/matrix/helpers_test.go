package matrix

import "math"

// FromRows builds a matrix from a slice of equally-long rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, ErrShape
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, ErrShape
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, ErrShape
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.RowView(i)
		orow := out.RowView(i)
		for k, a := range mrow {
			if a == 0 {
				continue
			}
			brow := b.RowView(k)
			for j, v := range brow {
				orow[j] += a * v
			}
		}
	}
	return out, nil
}

// MulVec returns m·x for a column vector x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, ErrShape
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Norm2 returns the Euclidean norm of x, via an overflow-safe scaled
// two-pass sum instead of a Hypot call per element.
func Norm2(x []float64) float64 {
	amax := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > amax {
			amax = a
		}
	}
	if amax == 0 || math.IsInf(amax, 0) {
		return amax
	}
	s := 0.0
	for _, v := range x {
		v /= amax
		s += v * v
	}
	return amax * math.Sqrt(s)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrShape
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// Size returns the dimension of the current factorization.
func (c *Cholesky) Size() int { return c.n }

// At returns factor element R[i,j] (zero below the diagonal).
func (c *Cholesky) At(i, j int) float64 {
	if j < i {
		return 0
	}
	return c.data[i*c.stride+j]
}

// Solve solves G·x = b through the factorization into a fresh slice.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.n)
	if err := c.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}
