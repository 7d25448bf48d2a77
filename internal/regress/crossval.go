// Cross-validation. The paper reports a single 80/20 split (§4.3); with
// only 40–100 samples the measured R² carries real variance, so the
// library also offers k-fold cross-validation to quantify it — used by the
// prediction-robustness ablation.
//
// Folds are independent once the shuffle is fixed: every fold's training
// and test sets are a pure function of (dataset, permutation, fold
// index). They therefore run on a bounded worker pool, with results
// landing in index-addressed slots and aggregated in canonical order —
// the same sequential ≡ parallel argument the campaign engine makes, and
// the same one proven here by test.
package regress

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"xvolt/internal/randsrc"
)

// CVResult aggregates per-fold evaluations.
type CVResult struct {
	Folds []Evaluation
	// MeanR2 / StdR2 summarize the coefficient of determination across
	// folds; MeanRMSE / MeanNaiveRMSE likewise.
	MeanR2, StdR2           float64
	MeanRMSE, MeanNaiveRMSE float64
}

// ErrBadFolds rejects invalid k.
var ErrBadFolds = errors.New("regress: invalid fold count")

// splitmix64 advances the SplitMix64 finalizer — the same mixing
// function core.CampaignSeed chains for campaign identities, duplicated
// here so the learning layer stays free of engine dependencies.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FoldSeed derives the deterministic shuffle seed of one
// cross-validation repeat from the caller's base seed, with the same
// splitmix64 chaining as core.CampaignSeed: stable for a given
// (seed, fold) identity, decorrelated across neighbors. Because every
// repeat's permutation comes from its own derived stream, parallel
// cross-validation never depends on worker scheduling.
func FoldSeed(seed int64, fold int) int64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(int64(fold)))
	return int64(h)
}

// CVOptions parameterizes CrossValidateOpts.
type CVOptions struct {
	// Folds is k, the number of held-out folds per repeat.
	Folds int
	// SelectFeatures > 0 runs in-fold RFE down to that many features.
	SelectFeatures int
	// Repeats reruns the whole k-fold with a fresh FoldSeed-derived
	// shuffle per repeat and aggregates across all repeats×folds;
	// values < 1 mean a single repeat.
	Repeats int
	// Workers bounds the fold worker pool; 0 means GOMAXPROCS.
	Workers int
	// Seed drives the repeat shuffles via FoldSeed.
	Seed int64
}

// CrossValidate runs k-fold cross-validation: shuffle once with the
// caller's RNG, split into k contiguous folds, train on k−1 and evaluate
// on the held-out fold — folds in parallel. When selectFeatures > 0, RFE
// down to that many features runs inside every training fold (no
// leakage). Results are identical to a sequential run for the same RNG
// state.
//
//xvolt:lint-ignore unusedexport drives the DESIGN §4 robustness ablation; the gated BenchmarkAblationCrossValidation calls it
func CrossValidate(d *Dataset, k int, selectFeatures int, rng *rand.Rand) (*CVResult, error) {
	if err := validateCV(d, k); err != nil {
		return nil, err
	}
	perm := rng.Perm(d.Len())
	return runFolds(d, [][]int{perm}, k, selectFeatures, 0)
}

// CrossValidateOpts is repeated k-fold cross-validation on a bounded
// worker pool: repeat r shuffles with a rand stream seeded by
// FoldSeed(o.Seed, r), and all repeats×folds jobs share the pool.
//
//xvolt:lint-ignore unusedexport drives the DESIGN §4 robustness ablation; the gated BenchmarkCrossValidateParallel calls it
func CrossValidateOpts(d *Dataset, o CVOptions) (*CVResult, error) {
	if err := validateCV(d, o.Folds); err != nil {
		return nil, err
	}
	reps := o.Repeats
	if reps < 1 {
		reps = 1
	}
	perms := make([][]int, reps)
	for r := range perms {
		perms[r] = randsrc.New(FoldSeed(o.Seed, r)).Perm(d.Len())
	}
	return runFolds(d, perms, o.Folds, o.SelectFeatures, o.Workers)
}

func validateCV(d *Dataset, k int) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if n := d.Len(); k < 2 || k > n {
		return fmt.Errorf("%w: k=%d for %d samples", ErrBadFolds, k, n)
	}
	return nil
}

// runFolds evaluates every (repeat, fold) job on a bounded worker pool.
// Results land in index-addressed slots and aggregate in canonical
// order, so the outcome is identical at any worker count.
func runFolds(d *Dataset, perms [][]int, k, selectFeatures, workers int) (*CVResult, error) {
	jobs := len(perms) * k
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	evals := make([]Evaluation, jobs)
	errs := make([]error, jobs)
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range ch {
				evals[idx], errs[idx] = runFold(d, perms[idx/k], idx%k, k, selectFeatures)
			}
		}()
	}
	for idx := 0; idx < jobs; idx++ {
		ch <- idx
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &CVResult{Folds: evals}
	for _, f := range res.Folds {
		res.MeanR2 += f.R2
		res.MeanRMSE += f.RMSE
		res.MeanNaiveRMSE += f.NaiveRMSE
	}
	kf := float64(len(res.Folds))
	res.MeanR2 /= kf
	res.MeanRMSE /= kf
	res.MeanNaiveRMSE /= kf
	for _, f := range res.Folds {
		dd := f.R2 - res.MeanR2
		res.StdR2 += dd * dd
	}
	res.StdR2 = math.Sqrt(res.StdR2 / kf)
	return res, nil
}

// runFold trains and scores one held-out fold of one repeat's shuffle.
func runFold(d *Dataset, perm []int, fold, k, selectFeatures int) (Evaluation, error) {
	n := len(perm)
	lo := fold * n / k
	hi := (fold + 1) * n / k
	testLen := hi - lo
	train := &Dataset{
		FeatureNames: d.FeatureNames,
		Features:     make([][]float64, 0, n-testLen),
		Targets:      make([]float64, 0, n-testLen),
	}
	test := &Dataset{
		FeatureNames: d.FeatureNames,
		Features:     make([][]float64, 0, testLen),
		Targets:      make([]float64, 0, testLen),
	}
	for i, idx := range perm {
		dst := train
		if i >= lo && i < hi {
			dst = test
		}
		dst.Features = append(dst.Features, d.Features[idx])
		dst.Targets = append(dst.Targets, d.Targets[idx])
	}
	var (
		model *Model
		err   error
		kept  []int
	)
	if selectFeatures > 0 {
		var sel *RFEResult
		model, sel, _, err = FitWithRFE(train, selectFeatures)
		if err != nil {
			return Evaluation{}, err
		}
		kept = sel.Kept
	} else {
		model, err = Fit(train)
		if err != nil {
			return Evaluation{}, err
		}
	}
	evalSet := test
	if kept != nil {
		if evalSet, err = test.Select(kept); err != nil {
			return Evaluation{}, err
		}
	}
	mean := 0.0
	for _, y := range train.Targets {
		mean += y
	}
	mean /= float64(train.Len())
	return model.Evaluate(evalSet, mean)
}
