// Gram-matrix fast path for OLS fitting and recursive feature
// elimination.
//
// Fit (the QR reference estimator) pays O(n·w²) per fit: it re-copies
// the dataset, re-standardizes every column and refactors the design
// matrix from scratch. RFE calls it ~w times, an O(n·w³) loop. But all
// of RFE's sub-fits share the same n samples and per-column
// standardization, so the standardized normal equations
//
//	G = XᵀX   c = Xᵀy      (X has a leading intercept column)
//
// can be accumulated once per dataset, after which *every* candidate
// feature subset is fitted by a Cholesky solve on a principal submatrix
// of G — the samples are never touched again. Eliminating one feature
// per step then downdates the live factorization (matrix.Cholesky
// .Downdate) instead of refactoring, collapsing RFE to one O(n·w²) Gram
// pass plus O(w³) total solve work.
//
// Path selection mirrors Fit exactly: the unregularized solve when the
// system is determined (falling back to ridge when numerically
// singular), the ridge-stabilized solve with the same λ otherwise — so
// the eliminations, and therefore RFE's Kept sets and rankings, match
// the reference implementation (proven by test on the paper's severity
// dataset).
package regress

import (
	"errors"
	"math"

	"xvolt/internal/matrix"
	"xvolt/internal/stats"
)

// ridgeLambda is the tiny penalty that keeps collinear or
// underdetermined systems solvable — the analogue of scikit-learn's
// minimum-norm fit, shared by the QR and Gram paths.
const ridgeLambda = 1e-6

// gramSystem holds the standardized normal equations of one dataset:
// the upper triangle of G = XᵀX (row/column 0 is the intercept), the
// right-hand side c = Xᵀy, and the standardization parameters shared by
// every sub-fit.
type gramSystem struct {
	g           *matrix.Matrix // (w+1)×(w+1); upper triangle only
	c           []float64      // Xᵀy, length w+1
	means, stds []float64
}

// newGramSystem accumulates the normal equations in one O(n·w²) pass.
// Standardization matches Fit bit for bit: per-column population
// mean/std, zero-variance columns centered with std reported as 1.
func newGramSystem(d *Dataset) *gramSystem {
	n, w := d.Len(), d.NumFeatures()
	gs := &gramSystem{
		g:     matrix.New(w+1, w+1),
		c:     make([]float64, w+1),
		means: make([]float64, w),
		stds:  make([]float64, w),
	}
	col := make([]float64, n)
	for j := 0; j < w; j++ {
		for i := 0; i < n; i++ {
			col[i] = d.Features[i][j]
		}
		mean := stats.Mean(col)
		std := stats.StdDev(col)
		if std == 0 {
			std = 1
		}
		gs.means[j] = mean
		gs.stds[j] = std
	}
	z := make([]float64, w+1)
	z[0] = 1
	for i := 0; i < n; i++ {
		row := d.Features[i]
		for j := 0; j < w; j++ {
			z[j+1] = (row[j] - gs.means[j]) / gs.stds[j]
		}
		for j := 0; j <= w; j++ {
			v := z[j]
			grow := gs.g.RowView(j)
			for k := j; k <= w; k++ {
				grow[k] += v * z[k]
			}
		}
		y := d.Targets[i]
		for j := 0; j <= w; j++ {
			gs.c[j] += z[j] * y
		}
	}
	return gs
}

// gather extracts the principal submatrix of G (and the matching
// right-hand side) for the active feature set into caller-owned
// buffers. active must be ascending so the upper triangle maps onto the
// upper triangle.
func (gs *gramSystem) gather(active []int, sub *matrix.Matrix, csub []float64) {
	m := len(active) + 1
	sub.Reset(m, m)
	s0 := sub.RowView(0)
	g0 := gs.g.RowView(0)
	s0[0] = g0[0]
	for col, aj := range active {
		s0[col+1] = g0[aj+1]
	}
	for r, ai := range active {
		srow := sub.RowView(r + 1)
		grow := gs.g.RowView(ai + 1)
		srow[r+1] = grow[ai+1]
		for col := r + 1; col < len(active); col++ {
			srow[col+1] = grow[active[col]+1]
		}
	}
	gs.gatherRHS(active, csub)
}

// gatherRHS extracts only the right-hand side for the active set — the
// part that must be rebuilt even when the factorization is downdated.
func (gs *gramSystem) gatherRHS(active []int, csub []float64) {
	csub[0] = gs.c[0]
	for r, ai := range active {
		csub[r+1] = gs.c[ai+1]
	}
}

// solveGram factors and solves the active subsystem with Fit's exact
// path policy: unregularized when determined (ridge on numerical
// singularity), ridge otherwise.
func solveGram(chol *matrix.Cholesky, sub *matrix.Matrix, csub, beta []float64, determined bool) error {
	var err error
	if determined {
		err = chol.Factor(sub)
		if errors.Is(err, matrix.ErrSingular) {
			err = chol.FactorRidge(sub, ridgeLambda)
		}
	} else {
		err = chol.FactorRidge(sub, ridgeLambda)
	}
	if err != nil {
		return err
	}
	return chol.SolveInto(beta, csub)
}

// rfeGram is the Gram-matrix RFE driver: accumulate the normal
// equations once, then run every elimination step as a submatrix solve.
// While the system stays underdetermined (the ridge regime) the live
// factorization is downdated in O(m²) per step; once it becomes
// determined, each step refactors its (now small) submatrix trying the
// unregularized solve first, exactly like Fit. The caller has already
// validated d and keep.
func rfeGram(d *Dataset, keep int) (*RFEResult, error) {
	n, w := d.Len(), d.NumFeatures()
	gs := newGramSystem(d)
	active := make([]int, w)
	for j := range active {
		active[j] = j
	}
	var (
		eliminated []int
		chol       matrix.Cholesky
		ridgeLive  bool // chol currently factors (G+λI) over active
	)
	sub := matrix.New(w+1, w+1)
	csub := make([]float64, w+1)
	beta := make([]float64, w+1)
	for len(active) > keep {
		m := len(active) + 1
		if n >= m {
			ridgeLive = false
			gs.gather(active, sub, csub)
			if err := solveGram(&chol, sub, csub[:m], beta[:m], true); err != nil {
				return nil, err
			}
		} else {
			if !ridgeLive {
				gs.gather(active, sub, csub)
				if err := chol.FactorRidge(sub, ridgeLambda); err != nil {
					return nil, err
				}
				ridgeLive = true
			} else {
				gs.gatherRHS(active, csub)
			}
			if err := chol.SolveInto(beta[:m], csub[:m]); err != nil {
				return nil, err
			}
		}
		// Drop the feature with the smallest |standardized coefficient|,
		// first-minimum-wins like the reference loop.
		worst, worstAbs := 0, math.Inf(1)
		for j := 0; j < m-1; j++ {
			if a := math.Abs(beta[j+1]); a < worstAbs {
				worst, worstAbs = j, a
			}
		}
		eliminated = append(eliminated, active[worst])
		if ridgeLive && n < m-1 {
			// The next step is still in the ridge regime: downdate the
			// factorization instead of rebuilding it.
			if err := chol.Downdate(worst + 1); err != nil {
				return nil, err
			}
		} else {
			ridgeLive = false
		}
		active = append(active[:worst], active[worst+1:]...)
	}
	return finishRFE(d, active, eliminated)
}
