package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	approx(t, "Mean", Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12)
	approx(t, "Mean empty", Mean(nil), 0, 0)
	approx(t, "Mean single", Mean([]float64{7}), 7, 0)
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Variance", Variance(xs), 4, 1e-12)
	approx(t, "StdDev", StdDev(xs), 2, 1e-12)
	approx(t, "Variance empty", Variance(nil), 0, 0)
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %v, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 5 {
		t.Errorf("Max = %v, %v", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v", err)
	}
}

func TestRMSE(t *testing.T) {
	r, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Errorf("RMSE exact = %v, %v", r, err)
	}
	r, _ = RMSE([]float64{2, 2}, []float64{0, 0})
	approx(t, "RMSE", r, 2, 1e-12)
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("RMSE mismatch should fail")
	}
	if _, err := RMSE(nil, nil); err != ErrEmpty {
		t.Errorf("RMSE(nil) err = %v", err)
	}
}

func TestRSquared(t *testing.T) {
	target := []float64{1, 2, 3, 4, 5}
	r, err := RSquared(target, target)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "R2 perfect", r, 1, 1e-12)

	mean := Mean(target)
	pred := []float64{mean, mean, mean, mean, mean}
	r, _ = RSquared(pred, target)
	approx(t, "R2 naive", r, 0, 1e-12)

	// Anti-correlated predictions are worse than the mean: negative R².
	r, _ = RSquared([]float64{5, 4, 3, 2, 1}, target)
	if r >= 0 {
		t.Errorf("R2 anti = %v, want negative", r)
	}

	// Zero-variance target.
	r, _ = RSquared([]float64{1, 1}, []float64{2, 2})
	approx(t, "R2 const-miss", r, 0, 0)
	r, _ = RSquared([]float64{2, 2}, []float64{2, 2})
	approx(t, "R2 const-hit", r, 1, 0)
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	c, err := Correlation(xs, []float64{2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "corr +1", c, 1, 1e-12)
	c, _ = Correlation(xs, []float64{8, 6, 4, 2})
	approx(t, "corr -1", c, -1, 1e-12)
	c, _ = Correlation(xs, []float64{5, 5, 5, 5})
	approx(t, "corr flat", c, 0, 0)
	if _, err := Correlation(xs, xs[:2]); err == nil {
		t.Error("Correlation mismatch should fail")
	}
}

func TestHistogram(t *testing.T) {
	h, err := Histogram([]float64{0.1, 0.2, 0.6, 0.9, -5, 12}, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 3 || h[1] != 3 {
		t.Errorf("Histogram = %v", h)
	}
	if _, err := Histogram(nil, 0, 1, 0); err == nil {
		t.Error("nbins=0 should fail")
	}
	if _, err := Histogram(nil, 1, 1, 3); err == nil {
		t.Error("hi<=lo should fail")
	}
}

// Property: R² of the exact targets is 1; shifting predictions lowers it.
func TestRSquaredProperty(t *testing.T) {
	prop := func(a, b, c int8, shift uint8) bool {
		target := []float64{float64(a), float64(b), float64(c), float64(a) + 1}
		r, err := RSquared(target, target)
		if err != nil || r != 1 {
			return false
		}
		pred := append([]float64(nil), target...)
		for i := range pred {
			pred[i] += float64(shift) + 1
		}
		r2, err := RSquared(pred, target)
		return err == nil && r2 < 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
