// Package predict implements the paper's §4 prediction flow (Fig. 6):
//
//  1. offline characterization (internal/core) exposes regions and severity,
//  2. profiling (internal/counters) collects all 101 PMU events at nominal,
//  3. Recursive Feature Elimination picks the most predictive events,
//  4. a linear regression model is trained and evaluated on held-out data,
//
// for the three test cases of §4.3: predicting the Vmin of a core across
// programs (case 1, no better than naïve), and predicting the severity of a
// sensitive (case 2) and a robust (case 3) core across (program, voltage)
// samples — which works well.
package predict

import (
	"errors"
	"fmt"

	"xvolt/internal/core"
	"xvolt/internal/counters"
	"xvolt/internal/randsrc"
	"xvolt/internal/regress"
	"xvolt/internal/units"
	"xvolt/internal/workload"
)

// Errors returned by dataset construction.
var (
	ErrNoCampaign = errors.New("predict: missing campaign result for benchmark")
	ErrAlignment  = errors.New("predict: specs and samples misaligned")
)

// VoltageFeatureName labels the extra feature appended to counter vectors
// in the severity datasets: the voltage of the characterization step.
const VoltageFeatureName = "VOLTAGE_MV"

// Profiles pairs each benchmark with its nominal-conditions PMU sample.
type Profiles struct {
	Specs   []*workload.Spec
	Samples []counters.Sample
}

// CollectProfiles measures every benchmark at nominal conditions (the
// profiling phase of Fig. 6).
func CollectProfiles(specs []*workload.Spec, seed int64) Profiles {
	rng := randsrc.New(seed)
	return Profiles{Specs: specs, Samples: counters.MeasureSuite(specs, rng)}
}

// Validate checks spec/sample alignment.
func (p Profiles) Validate() error {
	if len(p.Specs) == 0 || len(p.Specs) != len(p.Samples) {
		return ErrAlignment
	}
	for i, s := range p.Samples {
		if len(s) != counters.NumEvents {
			return fmt.Errorf("%w: sample %d has %d events", ErrAlignment, i, len(s))
		}
	}
	return nil
}

// campaignIndex keys campaign results by benchmark ID for one core.
func campaignIndex(results []*core.CampaignResult, coreID int) map[string]*core.CampaignResult {
	idx := map[string]*core.CampaignResult{}
	for _, r := range results {
		if r.Core == coreID {
			idx[r.BenchmarkID()] = r
		}
	}
	return idx
}

// BuildVminDataset assembles the §4.3.1 regression problem: one sample per
// (program, input) with the 101 counters as features and the core's safe
// Vmin (in mV) as the target.
func BuildVminDataset(results []*core.CampaignResult, profiles Profiles, coreID int) (*regress.Dataset, error) {
	if err := profiles.Validate(); err != nil {
		return nil, err
	}
	idx := campaignIndex(results, coreID)
	d := &regress.Dataset{FeatureNames: counters.Names()}
	for i, spec := range profiles.Specs {
		c, ok := idx[spec.ID()]
		if !ok {
			return nil, fmt.Errorf("%w: %s on core %d", ErrNoCampaign, spec.ID(), coreID)
		}
		vmin, ok := c.SafeVmin()
		if !ok {
			return nil, fmt.Errorf("predict: no safe Vmin for %s on core %d", spec.ID(), coreID)
		}
		d.Features = append(d.Features, append([]float64(nil), profiles.Samples[i]...))
		d.Targets = append(d.Targets, float64(vmin))
	}
	return d, nil
}

// BuildSeverityDataset assembles the §4.3.2/§4.3.3 regression problem: one
// sample per (program, abnormal 5 mV step) with the counters plus the step
// voltage as features and the severity value as the target. maxSamples
// bounds the population (the paper used 100 for core 0, 90 for core 4);
// pass 0 for no bound. Samples keep benchmark order, then sweep order.
func BuildSeverityDataset(results []*core.CampaignResult, profiles Profiles, coreID int, w core.Weights, maxSamples int) (*regress.Dataset, error) {
	if err := profiles.Validate(); err != nil {
		return nil, err
	}
	idx := campaignIndex(results, coreID)
	d := &regress.Dataset{FeatureNames: append(counters.Names(), VoltageFeatureName)}
	for i, spec := range profiles.Specs {
		c, ok := idx[spec.ID()]
		if !ok {
			return nil, fmt.Errorf("%w: %s on core %d", ErrNoCampaign, spec.ID(), coreID)
		}
		for _, step := range c.AbnormalSteps() {
			if maxSamples > 0 && len(d.Features) >= maxSamples {
				return d, nil
			}
			feat := make([]float64, 0, counters.NumEvents+1)
			feat = append(feat, profiles.Samples[i]...)
			feat = append(feat, float64(step.Voltage))
			d.Features = append(d.Features, feat)
			d.Targets = append(d.Targets, step.Severity(w))
		}
	}
	if len(d.Features) == 0 {
		return nil, errors.New("predict: no abnormal steps in the characterization")
	}
	return d, nil
}

// Pipeline bundles the §4.3 methodology parameters.
type Pipeline struct {
	// KeepFeatures is the RFE survivor count (5 in §4.2).
	KeepFeatures int
	// TrainFrac is the training split (0.8 in §4.3).
	TrainFrac float64
	// Seed drives the shuffle of the train/test split.
	Seed int64
}

// DefaultPipeline returns the paper's settings.
func DefaultPipeline() Pipeline {
	return Pipeline{KeepFeatures: 5, TrainFrac: 0.8, Seed: 1}
}

// CaseResult is the outcome of one §4.3 test case.
type CaseResult struct {
	regress.Evaluation
	// Selected names the RFE-surviving features, in dataset order.
	Selected []string
	// Model is the final fitted model over the selected features.
	Model *regress.Model
	// TrainMean is the naïve predictor's constant.
	TrainMean float64
}

// Run executes feature selection, training and evaluation on a dataset.
func (p Pipeline) Run(d *regress.Dataset) (CaseResult, error) {
	if err := d.Validate(); err != nil {
		return CaseResult{}, err
	}
	rng := randsrc.New(p.Seed)
	train, test, err := d.Split(rng, p.TrainFrac)
	if err != nil {
		return CaseResult{}, err
	}
	model, sel, _, err := regress.FitWithRFE(train, p.KeepFeatures)
	if err != nil {
		return CaseResult{}, err
	}
	testSel, err := test.Select(sel.Kept)
	if err != nil {
		return CaseResult{}, err
	}
	trainMean := 0.0
	for _, y := range train.Targets {
		trainMean += y
	}
	trainMean /= float64(train.Len())
	ev, err := model.Evaluate(testSel, trainMean)
	if err != nil {
		return CaseResult{}, err
	}
	res := CaseResult{Evaluation: ev, Model: model, TrainMean: trainMean}
	for _, k := range sel.Kept {
		name := fmt.Sprintf("feature_%d", k)
		if d.FeatureNames != nil {
			name = d.FeatureNames[k]
		}
		res.Selected = append(res.Selected, name)
	}
	return res, nil
}

// PredictSeverity evaluates a fitted severity model for a benchmark's
// counter profile at a target voltage. The model must have been trained on
// a severity dataset whose features were the RFE-selected counters plus
// the voltage column; featureOf maps each selected name back to its value.
func PredictSeverity(res CaseResult, sample counters.Sample, v units.MilliVolts) (float64, error) {
	feats := make([]float64, len(res.Selected))
	for i, name := range res.Selected {
		if name == VoltageFeatureName {
			feats[i] = float64(v)
			continue
		}
		found := false
		for e := counters.Event(0); e < counters.NumEvents; e++ {
			if e.Name() == name {
				feats[i] = sample[e]
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("predict: unknown selected feature %q", name)
		}
	}
	return res.Model.Predict(feats)
}
