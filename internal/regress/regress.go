// Package regress implements the statistical learning used in §4 of the
// paper: ordinary-least-squares linear regression over performance-counter
// features, Recursive Feature Elimination (RFE) to pick the most predictive
// events, train/test splitting and the naïve mean-predictor baseline.
//
// The paper used scikit-learn; this package reproduces the same algorithms
// on the stdlib only (QR-based OLS from internal/matrix).
package regress

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"xvolt/internal/matrix"
	"xvolt/internal/stats"
)

// Errors returned by the package.
var (
	ErrNoData       = errors.New("regress: no samples")
	ErrDim          = errors.New("regress: inconsistent dimensions")
	ErrTooFewRows   = errors.New("regress: fewer samples than features")
	ErrNoSuchFeat   = errors.New("regress: unknown feature index")
	ErrBadSplit     = errors.New("regress: invalid train fraction")
	ErrBadKeep      = errors.New("regress: invalid number of features to keep")
	errNotFitted    = errors.New("regress: model not fitted")
	errFeatureCount = errors.New("regress: sample has wrong feature count")
)

// Dataset is a supervised learning problem: one row of Features per target.
// FeatureNames is optional; when present it must match the feature count.
type Dataset struct {
	FeatureNames []string
	Features     [][]float64
	Targets      []float64
}

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if len(d.Features) == 0 {
		return ErrNoData
	}
	if len(d.Features) != len(d.Targets) {
		return fmt.Errorf("%w: %d feature rows, %d targets", ErrDim, len(d.Features), len(d.Targets))
	}
	w := len(d.Features[0])
	if w == 0 {
		return fmt.Errorf("%w: zero-width features", ErrDim)
	}
	for i, row := range d.Features {
		if len(row) != w {
			return fmt.Errorf("%w: row %d has %d features, want %d", ErrDim, i, len(row), w)
		}
	}
	if d.FeatureNames != nil && len(d.FeatureNames) != w {
		return fmt.Errorf("%w: %d names for %d features", ErrDim, len(d.FeatureNames), w)
	}
	return nil
}

// NumFeatures returns the feature-vector width.
func (d *Dataset) NumFeatures() int {
	if len(d.Features) == 0 {
		return 0
	}
	return len(d.Features[0])
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Features) }

// Select returns a view-like copy of the dataset restricted to the given
// feature indices (in the given order).
func (d *Dataset) Select(idx []int) (*Dataset, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	w := d.NumFeatures()
	for _, j := range idx {
		if j < 0 || j >= w {
			return nil, fmt.Errorf("%w: %d", ErrNoSuchFeat, j)
		}
	}
	out := &Dataset{Targets: append([]float64(nil), d.Targets...)}
	if d.FeatureNames != nil {
		out.FeatureNames = make([]string, len(idx))
		for k, j := range idx {
			out.FeatureNames[k] = d.FeatureNames[j]
		}
	}
	out.Features = make([][]float64, d.Len())
	for i, row := range d.Features {
		nr := make([]float64, len(idx))
		for k, j := range idx {
			nr[k] = row[j]
		}
		out.Features[i] = nr
	}
	return out, nil
}

// Split shuffles the dataset with the given RNG and splits it into train and
// test subsets; trainFrac is the training fraction, e.g. 0.8 as in the paper.
// Both subsets are guaranteed non-empty (requires at least 2 samples).
func (d *Dataset) Split(rng *rand.Rand, trainFrac float64) (train, test *Dataset, err error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, ErrBadSplit
	}
	n := d.Len()
	if n < 2 {
		return nil, nil, fmt.Errorf("%w: need at least 2 samples to split", ErrNoData)
	}
	perm := rng.Perm(n)
	cut := int(math.Round(float64(n) * trainFrac))
	if cut < 1 {
		cut = 1
	}
	if cut > n-1 {
		cut = n - 1
	}
	pick := func(ix []int) *Dataset {
		s := &Dataset{
			FeatureNames: d.FeatureNames,
			Features:     make([][]float64, len(ix)),
			Targets:      make([]float64, len(ix)),
		}
		for k, i := range ix {
			s.Features[k] = d.Features[i]
			s.Targets[k] = d.Targets[i]
		}
		return s
	}
	return pick(perm[:cut]), pick(perm[cut:]), nil
}

// Model is a fitted ordinary-least-squares linear model
// ŷ = β₀ + Σ βⱼ·zⱼ over standardized features zⱼ.
type Model struct {
	// Intercept is β₀ in the standardized space (the training-target mean).
	Intercept float64
	// Coef are the per-feature weights in standardized space.
	Coef []float64
	// FeatureNames mirrors the training dataset, if it had names.
	FeatureNames []string

	// standardization parameters learned on the training set
	means, stds []float64
	fitted      bool
}

// fitBuf is the reusable scratch of one Fit call: the standardized
// design matrix, its QR factorization and a standardization column.
// Pooled so that repeated fits — RFE's reference loop, parallel
// cross-validation folds — stop allocating a fresh workspace per call.
type fitBuf struct {
	x   matrix.Matrix
	qr  matrix.QR
	col []float64
}

var fitPool = sync.Pool{New: func() any { return new(fitBuf) }}

// Fit trains an OLS model on the dataset. Features are standardized
// internally (zero mean, unit variance on the training set) so that
// coefficient magnitudes are comparable — the property RFE relies on.
// A tiny ridge penalty keeps collinear counter sets solvable, mirroring
// scikit-learn's tolerance to degenerate inputs.
func Fit(d *Dataset) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n, w := d.Len(), d.NumFeatures()
	if n < 2 {
		return nil, fmt.Errorf("%w: %d samples for %d features", ErrTooFewRows, n, w)
	}
	m := &Model{
		FeatureNames: d.FeatureNames,
		means:        make([]float64, w),
		stds:         make([]float64, w),
	}
	buf := fitPool.Get().(*fitBuf)
	defer fitPool.Put(buf)
	// Design matrix with leading intercept column, standardized column by
	// column into the pooled workspace.
	buf.x.Reset(n, w+1)
	x := &buf.x
	if cap(buf.col) < n {
		buf.col = make([]float64, n)
	}
	col := buf.col[:n]
	for i := 0; i < n; i++ {
		x.RowView(i)[0] = 1
	}
	for j := 0; j < w; j++ {
		for i := 0; i < n; i++ {
			col[i] = d.Features[i][j]
		}
		mean := stats.Mean(col)
		std := stats.StdDev(col)
		if std == 0 {
			std = 1
		}
		m.means[j] = mean
		m.stds[j] = std
		for i := 0; i < n; i++ {
			x.RowView(i)[j+1] = (col[i] - mean) / std
		}
	}
	var beta []float64
	var err error
	if n >= w+1 {
		if err = matrix.FactorInto(&buf.qr, x); err == nil {
			beta = make([]float64, w+1)
			err = buf.qr.SolveInto(beta, d.Targets)
		}
	} else {
		// Underdetermined problem (RFE starts from all 101 events with a
		// handful of training programs): take the ridge solution with a
		// tiny penalty, the analogue of scikit-learn's minimum-norm
		// least-squares fit.
		err = matrix.ErrSingular
	}
	if err != nil {
		if !errors.Is(err, matrix.ErrSingular) {
			return nil, err
		}
		beta, err = matrix.SolveRidge(x, d.Targets, ridgeLambda)
		if err != nil {
			return nil, err
		}
	}
	m.Intercept = beta[0]
	m.Coef = beta[1:]
	m.fitted = true
	return m, nil
}

// Predict evaluates the model on one feature vector.
func (m *Model) Predict(features []float64) (float64, error) {
	if !m.fitted {
		return 0, errNotFitted
	}
	if len(features) != len(m.Coef) {
		return 0, fmt.Errorf("%w: got %d, want %d", errFeatureCount, len(features), len(m.Coef))
	}
	y := m.Intercept
	for j, f := range features {
		y += m.Coef[j] * (f - m.means[j]) / m.stds[j]
	}
	return y, nil
}

// PredictAll evaluates the model over a dataset's feature rows.
func (m *Model) PredictAll(d *Dataset) ([]float64, error) {
	out := make([]float64, d.Len())
	for i, row := range d.Features {
		y, err := m.Predict(row)
		if err != nil {
			return nil, err
		}
		out[i] = y
	}
	return out, nil
}

// Evaluation summarizes model quality on a dataset, in the paper's terms.
type Evaluation struct {
	R2        float64 // coefficient of determination
	RMSE      float64 // root mean squared error
	NaiveRMSE float64 // RMSE of predicting the training-set mean
	// N is the number of evaluated samples.
	//xvolt:lint-ignore unusedexport the cross-validation tests check with it that the test folds cover every sample once
	N int
}

// Evaluate scores the model on a test set. naiveMean is the mean of the
// *training* targets (the paper's naïve baseline predicts this constant).
func (m *Model) Evaluate(test *Dataset, naiveMean float64) (Evaluation, error) {
	if err := test.Validate(); err != nil {
		return Evaluation{}, err
	}
	pred, err := m.PredictAll(test)
	if err != nil {
		return Evaluation{}, err
	}
	r2, err := stats.RSquared(pred, test.Targets)
	if err != nil {
		return Evaluation{}, err
	}
	rmse, err := stats.RMSE(pred, test.Targets)
	if err != nil {
		return Evaluation{}, err
	}
	// Reuse the prediction buffer for the naive baseline — pred has been
	// fully consumed by the R² and RMSE computations above.
	for i := range pred {
		pred[i] = naiveMean
	}
	nrmse, err := stats.RMSE(pred, test.Targets)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{R2: r2, RMSE: rmse, NaiveRMSE: nrmse, N: test.Len()}, nil
}

// RFEResult reports the outcome of recursive feature elimination.
type RFEResult struct {
	// Kept holds the surviving feature indices into the original dataset,
	// sorted ascending.
	Kept []int
	// Ranking lists all original feature indices from most to least
	// important: survivors first (by final |coef|), then eliminated
	// features in reverse order of elimination.
	Ranking []int
}

// RFE performs Recursive Feature Elimination (paper §4.2): fit the
// estimator on the current feature set, drop the feature with the smallest
// absolute standardized coefficient, repeat until keep features remain.
//
// It runs on the Gram-matrix path (one normal-equations accumulation,
// Cholesky sub-solves per step). The tests pin its Kept sets and
// rankings against the QR reference loop, one full re-fit per step, on
// the paper's severity dataset.
func RFE(d *Dataset, keep int) (*RFEResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	w := d.NumFeatures()
	if keep < 1 || keep > w {
		return nil, fmt.Errorf("%w: keep=%d of %d", ErrBadKeep, keep, w)
	}
	return rfeGram(d, keep)
}

// finishRFE ranks the survivors with a final reference fit and assembles
// the result — shared by RFE and the tests' QR reference loop, so their
// rankings come from the identical estimator.
func finishRFE(d *Dataset, current, eliminated []int) (*RFEResult, error) {
	sub, err := d.Select(current)
	if err != nil {
		return nil, err
	}
	model, err := Fit(sub)
	if err != nil {
		return nil, err
	}
	type fc struct {
		idx int
		abs float64
	}
	fcs := make([]fc, len(current))
	for j, idx := range current {
		fcs[j] = fc{idx, math.Abs(model.Coef[j])}
	}
	sort.Slice(fcs, func(a, b int) bool { return fcs[a].abs > fcs[b].abs })
	res := &RFEResult{Ranking: make([]int, 0, len(current)+len(eliminated))}
	for _, f := range fcs {
		res.Ranking = append(res.Ranking, f.idx)
	}
	for i := len(eliminated) - 1; i >= 0; i-- {
		res.Ranking = append(res.Ranking, eliminated[i])
	}
	res.Kept = append([]int(nil), current...)
	sort.Ints(res.Kept)
	return res, nil
}

// FitWithRFE runs RFE to keep features, then fits a final model on the
// survivors. It returns the model, the selection, and the reduced dataset.
func FitWithRFE(d *Dataset, keep int) (*Model, *RFEResult, *Dataset, error) {
	sel, err := RFE(d, keep)
	if err != nil {
		return nil, nil, nil, err
	}
	sub, err := d.Select(sel.Kept)
	if err != nil {
		return nil, nil, nil, err
	}
	model, err := Fit(sub)
	if err != nil {
		return nil, nil, nil, err
	}
	return model, sel, sub, nil
}
