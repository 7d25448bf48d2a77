package regress

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"xvolt/internal/matrix"
)

// FitGram trains the same standardized OLS model as Fit through the
// normal equations: one O(n·w²) Gram accumulation and one Cholesky
// solve, the single-fit form of RFE's Gram path. Coefficients agree with
// Fit to numerical precision (the tests below pin 1e-8), which is what
// lets rfeGram's eliminations match the QR reference.
func FitGram(d *Dataset) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n, w := d.Len(), d.NumFeatures()
	if n < 2 {
		return nil, fmt.Errorf("%w: %d samples for %d features", ErrTooFewRows, n, w)
	}
	gs := newGramSystem(d)
	var chol matrix.Cholesky
	beta := make([]float64, w+1)
	if err := solveGram(&chol, gs.g, gs.c, beta, n >= w+1); err != nil {
		return nil, err
	}
	return &Model{
		Intercept:    beta[0],
		Coef:         beta[1:],
		FeatureNames: d.FeatureNames,
		means:        gs.means,
		stds:         gs.stds,
		fitted:       true,
	}, nil
}

// coefsClose compares two models' parameters with a scaled tolerance.
func coefsClose(t *testing.T, tag string, a, b *Model, tol float64) {
	t.Helper()
	scale := math.Abs(a.Intercept)
	for _, c := range a.Coef {
		if s := math.Abs(c); s > scale {
			scale = s
		}
	}
	if scale < 1 {
		scale = 1
	}
	if d := math.Abs(a.Intercept - b.Intercept); d > tol*scale {
		t.Errorf("%s: intercept %v vs %v (Δ=%g)", tag, a.Intercept, b.Intercept, d)
	}
	if len(a.Coef) != len(b.Coef) {
		t.Fatalf("%s: coef widths %d vs %d", tag, len(a.Coef), len(b.Coef))
	}
	for j := range a.Coef {
		if d := math.Abs(a.Coef[j] - b.Coef[j]); d > tol*scale {
			t.Errorf("%s: coef[%d] %v vs %v (Δ=%g)", tag, j, a.Coef[j], b.Coef[j], d)
		}
	}
}

// TestFitGramMatchesQRRandom: on well-conditioned random systems the
// Gram/Cholesky fit and the QR reference agree to 1e-8.
func TestFitGramMatchesQRRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, w int }{{30, 3}, {60, 10}, {200, 25}} {
		d := synthDataset(rng, tc.n, tc.w, 0.5)
		qr, err := Fit(d)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := FitGram(d)
		if err != nil {
			t.Fatal(err)
		}
		coefsClose(t, "random", qr, gr, 1e-8)
		// Standardization parameters are bit-identical by construction.
		if !reflect.DeepEqual(qr.means, gr.means) || !reflect.DeepEqual(qr.stds, gr.stds) {
			t.Error("standardization parameters differ between paths")
		}
	}
}

// TestFitGramMatchesQRCollinear: a duplicated column forces both paths
// onto their ridge fallback; the solutions must still agree.
func TestFitGramMatchesQRCollinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := synthDataset(rng, 50, 4, 0.5)
	d := &Dataset{Targets: base.Targets}
	for _, row := range base.Features {
		d.Features = append(d.Features, append(append([]float64(nil), row...), row[0]))
	}
	qr, err := Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := FitGram(d)
	if err != nil {
		t.Fatal(err)
	}
	coefsClose(t, "collinear", qr, gr, 1e-8)
}

// TestFitGramMatchesQRUnderdetermined: more features than samples — the
// regime RFE starts in on the 101-counter datasets.
func TestFitGramMatchesQRUnderdetermined(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := synthDataset(rng, 12, 20, 0.2)
	qr, err := Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := FitGram(d)
	if err != nil {
		t.Fatal(err)
	}
	coefsClose(t, "underdetermined", qr, gr, 1e-8)
}

// TestFitGramPredicts: the fast-path model is a working Model — its
// predictions match the reference model's.
func TestFitGramPredicts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := synthDataset(rng, 80, 6, 0.5)
	qr, err := Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := FitGram(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		row := d.Features[i]
		a, err := qr.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gr.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-6 {
			t.Fatalf("row %d: predictions %v vs %v", i, a, b)
		}
	}
}

func TestFitGramErrors(t *testing.T) {
	if _, err := FitGram(&Dataset{}); err == nil {
		t.Error("empty dataset accepted")
	}
	d := &Dataset{Features: [][]float64{{1, 2}}, Targets: []float64{3}}
	if _, err := FitGram(d); err == nil {
		t.Error("single-sample dataset accepted")
	}
}

// TestRFEGramMatchesReference: the production RFE (gram path for wide
// problems) and the QR reference produce identical Kept sets and
// rankings on synthetic datasets across widths and keeps, determined and
// underdetermined.
func TestRFEGramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		n, w, keep int
		sigma      float64
	}{
		{100, 10, 3, 0.5},
		{100, 10, 1, 0.5},
		{60, 15, 5, 1.0},
		{40, 12, 12, 0.5}, // keep == w: no eliminations
		{20, 30, 5, 0.5},  // underdetermined throughout
		{25, 24, 4, 0.3},  // crosses from ridge into determined
	}
	for _, tc := range cases {
		d := synthDataset(rng, tc.n, tc.w, tc.sigma)
		fast, err := RFE(d, tc.keep)
		if err != nil {
			t.Fatalf("n=%d w=%d keep=%d: %v", tc.n, tc.w, tc.keep, err)
		}
		ref, err := RFEReference(d, tc.keep)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast.Kept, ref.Kept) {
			t.Errorf("n=%d w=%d keep=%d: Kept %v vs reference %v",
				tc.n, tc.w, tc.keep, fast.Kept, ref.Kept)
		}
		if !reflect.DeepEqual(fast.Ranking, ref.Ranking) {
			t.Errorf("n=%d w=%d keep=%d: Ranking %v vs reference %v",
				tc.n, tc.w, tc.keep, fast.Ranking, ref.Ranking)
		}
	}
}

// TestRFEReferenceValidates: the reference entry point applies the same
// argument checks as RFE.
func TestRFEReferenceValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := synthDataset(rng, 30, 4, 0.5)
	if _, err := RFEReference(d, 0); err == nil {
		t.Error("keep=0 accepted")
	}
	if _, err := RFEReference(d, 5); err == nil {
		t.Error("keep>w accepted")
	}
	if _, err := RFEReference(&Dataset{}, 1); err == nil {
		t.Error("empty dataset accepted")
	}
}
