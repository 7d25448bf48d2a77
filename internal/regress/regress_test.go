package regress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// synthDataset builds n samples over w features where only the first two
// features matter: y = 3 + 2·x0 − 1.5·x1 + noise·σ.
func synthDataset(rng *rand.Rand, n, w int, sigma float64) *Dataset {
	d := &Dataset{}
	for i := 0; i < n; i++ {
		row := make([]float64, w)
		for j := range row {
			row[j] = rng.NormFloat64() * 10
		}
		y := 3 + 2*row[0] - 1.5*row[1] + rng.NormFloat64()*sigma
		d.Features = append(d.Features, row)
		d.Targets = append(d.Targets, y)
	}
	return d
}

func TestValidate(t *testing.T) {
	d := &Dataset{}
	if err := d.Validate(); !errors.Is(err, ErrNoData) {
		t.Errorf("empty err = %v", err)
	}
	d = &Dataset{Features: [][]float64{{1}}, Targets: []float64{1, 2}}
	if err := d.Validate(); !errors.Is(err, ErrDim) {
		t.Errorf("mismatch err = %v", err)
	}
	d = &Dataset{Features: [][]float64{{1, 2}, {3}}, Targets: []float64{1, 2}}
	if err := d.Validate(); !errors.Is(err, ErrDim) {
		t.Errorf("ragged err = %v", err)
	}
	d = &Dataset{Features: [][]float64{{}}, Targets: []float64{1}}
	if err := d.Validate(); !errors.Is(err, ErrDim) {
		t.Errorf("zero-width err = %v", err)
	}
	d = &Dataset{
		FeatureNames: []string{"a"},
		Features:     [][]float64{{1, 2}},
		Targets:      []float64{1},
	}
	if err := d.Validate(); !errors.Is(err, ErrDim) {
		t.Errorf("name-count err = %v", err)
	}
	d = &Dataset{
		FeatureNames: []string{"a", "b"},
		Features:     [][]float64{{1, 2}},
		Targets:      []float64{1},
	}
	if err := d.Validate(); err != nil {
		t.Errorf("valid dataset err = %v", err)
	}
	if d.NumFeatures() != 2 || d.Len() != 1 {
		t.Errorf("NumFeatures/Len = %d/%d", d.NumFeatures(), d.Len())
	}
	if (&Dataset{}).NumFeatures() != 0 {
		t.Error("empty NumFeatures != 0")
	}
}

func TestSelect(t *testing.T) {
	d := &Dataset{
		FeatureNames: []string{"a", "b", "c"},
		Features:     [][]float64{{1, 2, 3}, {4, 5, 6}},
		Targets:      []float64{10, 20},
	}
	s, err := d.Select([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.FeatureNames[0] != "c" || s.FeatureNames[1] != "a" {
		t.Errorf("names = %v", s.FeatureNames)
	}
	if s.Features[1][0] != 6 || s.Features[1][1] != 4 {
		t.Errorf("features = %v", s.Features)
	}
	if _, err := d.Select([]int{3}); !errors.Is(err, ErrNoSuchFeat) {
		t.Errorf("bad index err = %v", err)
	}
	// Selecting must not alias the original targets.
	s.Targets[0] = 999
	if d.Targets[0] != 10 {
		t.Error("Select aliases targets")
	}
}

func TestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := synthDataset(rng, 40, 3, 0)
	train, test, err := d.Split(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 32 || test.Len() != 8 {
		t.Errorf("split sizes = %d/%d, want 32/8", train.Len(), test.Len())
	}
	// Every sample appears exactly once across the two subsets.
	seen := map[float64]int{}
	for _, y := range append(append([]float64{}, train.Targets...), test.Targets...) {
		seen[y]++
	}
	if len(seen) != 40 {
		t.Errorf("split lost or duplicated samples: %d unique", len(seen))
	}

	if _, _, err := d.Split(rng, 0); !errors.Is(err, ErrBadSplit) {
		t.Errorf("frac 0 err = %v", err)
	}
	if _, _, err := d.Split(rng, 1); !errors.Is(err, ErrBadSplit) {
		t.Errorf("frac 1 err = %v", err)
	}
	single := &Dataset{Features: [][]float64{{1}}, Targets: []float64{1}}
	if _, _, err := single.Split(rng, 0.8); err == nil {
		t.Error("single-sample split should fail")
	}
}

func TestSplitAlwaysNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := synthDataset(rng, 2, 2, 0)
	for _, frac := range []float64{0.01, 0.5, 0.99} {
		train, test, err := d.Split(rng, frac)
		if err != nil {
			t.Fatal(err)
		}
		if train.Len() == 0 || test.Len() == 0 {
			t.Errorf("frac %v gave %d/%d", frac, train.Len(), test.Len())
		}
	}
}

func TestFitRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := synthDataset(rng, 200, 2, 0)
	m, err := Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	// Exact fit: predictions match targets.
	pred, err := m.PredictAll(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pred {
		if math.Abs(pred[i]-d.Targets[i]) > 1e-8 {
			t.Fatalf("sample %d: pred %v target %v", i, pred[i], d.Targets[i])
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(&Dataset{}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty err = %v", err)
	}
	// More features than samples.
	d := &Dataset{Features: [][]float64{{1, 2, 3}}, Targets: []float64{1}}
	if _, err := Fit(d); !errors.Is(err, ErrTooFewRows) {
		t.Errorf("underdetermined err = %v", err)
	}
}

func TestFitCollinearFeatures(t *testing.T) {
	// Duplicate columns: plain OLS is singular, ridge fallback must engage.
	rng := rand.New(rand.NewSource(4))
	d := &Dataset{}
	for i := 0; i < 50; i++ {
		x := rng.NormFloat64() * 5
		d.Features = append(d.Features, []float64{x, x, rng.NormFloat64()})
		d.Targets = append(d.Targets, 2*x+1)
	}
	m, err := Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.PredictAll(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pred {
		if math.Abs(pred[i]-d.Targets[i]) > 1e-3 {
			t.Fatalf("collinear fit poor at %d: %v vs %v", i, pred[i], d.Targets[i])
		}
	}
}

func TestPredictErrors(t *testing.T) {
	var m Model
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Error("unfitted Predict should fail")
	}
	rng := rand.New(rand.NewSource(5))
	d := synthDataset(rng, 30, 2, 0)
	fitted, err := Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fitted.Predict([]float64{1}); err == nil {
		t.Error("wrong-width Predict should fail")
	}
}

func TestEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := synthDataset(rng, 100, 2, 1.0)
	train, test, err := d.Split(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	trainMean := 0.0
	for _, y := range train.Targets {
		trainMean += y
	}
	trainMean /= float64(train.Len())
	ev, err := m.Evaluate(test, trainMean)
	if err != nil {
		t.Fatal(err)
	}
	if ev.N != test.Len() {
		t.Errorf("N = %d", ev.N)
	}
	if ev.R2 < 0.9 {
		t.Errorf("R2 = %v, want > 0.9 on strongly linear data", ev.R2)
	}
	if ev.RMSE >= ev.NaiveRMSE {
		t.Errorf("model RMSE %v not better than naive %v", ev.RMSE, ev.NaiveRMSE)
	}
	if _, err := m.Evaluate(&Dataset{}, 0); err == nil {
		t.Error("Evaluate empty should fail")
	}
}

func TestRFEKeepsInformativeFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// 10 features, only 0 and 1 matter.
	d := synthDataset(rng, 120, 10, 0.5)
	res, err := RFE(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 2 {
		t.Fatalf("Kept = %v", res.Kept)
	}
	if res.Kept[0] != 0 || res.Kept[1] != 1 {
		t.Errorf("RFE kept %v, want [0 1]", res.Kept)
	}
	if len(res.Ranking) != 10 {
		t.Errorf("Ranking has %d entries", len(res.Ranking))
	}
	// The two informative features must rank first and second.
	top := map[int]bool{res.Ranking[0]: true, res.Ranking[1]: true}
	if !top[0] || !top[1] {
		t.Errorf("Ranking top-2 = %v", res.Ranking[:2])
	}
}

func TestRFEKeepAllIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := synthDataset(rng, 50, 4, 1)
	res, err := RFE(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 4 {
		t.Errorf("Kept = %v", res.Kept)
	}
}

func TestRFEErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := synthDataset(rng, 50, 4, 1)
	if _, err := RFE(d, 0); !errors.Is(err, ErrBadKeep) {
		t.Errorf("keep=0 err = %v", err)
	}
	if _, err := RFE(d, 5); !errors.Is(err, ErrBadKeep) {
		t.Errorf("keep>w err = %v", err)
	}
	if _, err := RFE(&Dataset{}, 1); !errors.Is(err, ErrNoData) {
		t.Errorf("empty err = %v", err)
	}
}

func TestFitWithRFE(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := synthDataset(rng, 150, 8, 0.5)
	d.FeatureNames = []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}
	model, sel, sub, err := FitWithRFE(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Coef) != 3 || sub.NumFeatures() != 3 || len(sel.Kept) != 3 {
		t.Fatalf("reduced sizes wrong: %d/%d/%d", len(model.Coef), sub.NumFeatures(), len(sel.Kept))
	}
	// The informative features must survive.
	kept := map[int]bool{}
	for _, k := range sel.Kept {
		kept[k] = true
	}
	if !kept[0] || !kept[1] {
		t.Errorf("informative features dropped: %v", sel.Kept)
	}
	// Model predicts well using only the survivors.
	pred, err := model.PredictAll(sub)
	if err != nil {
		t.Fatal(err)
	}
	var sse, sst, mean float64
	for _, y := range sub.Targets {
		mean += y
	}
	mean /= float64(len(sub.Targets))
	for i := range pred {
		sse += (pred[i] - sub.Targets[i]) * (pred[i] - sub.Targets[i])
		sst += (sub.Targets[i] - mean) * (sub.Targets[i] - mean)
	}
	if r2 := 1 - sse/sst; r2 < 0.95 {
		t.Errorf("post-RFE R2 = %v", r2)
	}
}

// The paper's §4.3.1 finding in miniature: when the target barely depends on
// the features, the model cannot beat the naïve baseline and R² hovers
// around zero.
func TestUninformativeFeaturesGiveZeroR2(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := &Dataset{}
	for i := 0; i < 100; i++ {
		d.Features = append(d.Features, []float64{rng.NormFloat64(), rng.NormFloat64()})
		d.Targets = append(d.Targets, 900+rng.NormFloat64()*5) // pure noise target
	}
	train, test, err := d.Split(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, y := range train.Targets {
		mean += y
	}
	mean /= float64(train.Len())
	ev, err := m.Evaluate(test, mean)
	if err != nil {
		t.Fatal(err)
	}
	if ev.R2 > 0.4 {
		t.Errorf("R2 = %v on noise, want ≈0", ev.R2)
	}
	if ev.RMSE > 2*ev.NaiveRMSE {
		t.Errorf("model much worse than naive: %v vs %v", ev.RMSE, ev.NaiveRMSE)
	}
}

func TestSplitDeterministicWithSeed(t *testing.T) {
	d := synthDataset(rand.New(rand.NewSource(12)), 30, 2, 1)
	a1, b1, err := d.Split(rand.New(rand.NewSource(99)), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := d.Split(rand.New(rand.NewSource(99)), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Targets {
		if a1.Targets[i] != a2.Targets[i] {
			t.Fatal("train split not deterministic")
		}
	}
	for i := range b1.Targets {
		if b1.Targets[i] != b2.Targets[i] {
			t.Fatal("test split not deterministic")
		}
	}
}
