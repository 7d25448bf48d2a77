// Package stats provides the small statistical toolkit used by the
// characterization framework and the regression analysis: moments,
// percentiles, histograms and error metrics.
//
// Everything operates on plain float64 slices and never mutates its inputs
// unless documented otherwise.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by reductions over empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element. It returns an error for empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element. It returns an error for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// RMSE returns the root-mean-square error between predictions and targets.
// The slices must be the same non-zero length.
func RMSE(pred, target []float64) (float64, error) {
	if len(pred) != len(target) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - target[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred))), nil
}

// RSquared returns the coefficient of determination of predictions against
// targets: 1 − SS_res/SS_tot. It can be negative for models worse than the
// mean, and is 0 by convention when the targets have zero variance and the
// predictions are not exact.
func RSquared(pred, target []float64) (float64, error) {
	if len(pred) != len(target) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	m := Mean(target)
	ssRes, ssTot := 0.0, 0.0
	for i := range target {
		r := target[i] - pred[i]
		d := target[i] - m
		ssRes += r * r
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 1 - ssRes/ssTot, nil
}

// Correlation returns the Pearson correlation coefficient of xs and ys,
// or 0 when either series has no variance.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Histogram counts xs into nbins equal-width bins spanning [lo, hi].
// Values outside the span are clamped into the edge bins.
func Histogram(xs []float64, lo, hi float64, nbins int) ([]int, error) {
	if nbins <= 0 {
		return nil, errors.New("stats: nbins must be positive")
	}
	if hi <= lo {
		return nil, errors.New("stats: invalid span")
	}
	bins := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		bins[i]++
	}
	return bins, nil
}
