// Equivalence of the Gram-matrix RFE fast path and the QR reference on
// the paper's real data: the case-2 severity dataset (§4.3.2). This is
// the test that lets the prediction pipeline take the fast path without
// moving any §4 golden — identical Kept sets and rankings here imply
// identical selected features, models and reported R² downstream.
package regress_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"xvolt/internal/core"
	"xvolt/internal/predict"
	"xvolt/internal/regress"
	"xvolt/internal/silicon"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// The case-2 severity dataset: the prediction suite characterized on
// core 0 of the TTT chip (3 runs per step, seed 1), joined with the
// suite's counter profiles. Built once per test binary.
var (
	sevOnce sync.Once
	sevData *regress.Dataset
	sevErr  error
)

func severityDataset(t *testing.T) *regress.Dataset {
	t.Helper()
	sevOnce.Do(func() {
		fw := core.New(xgene.New(silicon.NewChip(silicon.TTT, 1)))
		cfg := core.DefaultConfig(workload.PredictionSuite(), []int{0})
		cfg.Runs = 3
		cfg.Seed = 1
		results, err := fw.Characterize(cfg)
		if err != nil {
			sevErr = err
			return
		}
		profiles := predict.CollectProfiles(workload.PredictionSuite(), 7)
		sevData, sevErr = predict.BuildSeverityDataset(results, profiles, 0, core.PaperWeights, 100)
	})
	if sevErr != nil {
		t.Fatal(sevErr)
	}
	return sevData
}

func TestRFEFastPathMatchesReferenceOnSeverity(t *testing.T) {
	d := severityDataset(t)
	for _, keep := range []int{1, 3, 5, 10} {
		fast, err := regress.RFE(d, keep)
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		ref, err := regress.RFEReference(d, keep)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast.Kept, ref.Kept) {
			t.Errorf("keep=%d: Kept %v vs reference %v", keep, fast.Kept, ref.Kept)
		}
		if !reflect.DeepEqual(fast.Ranking, ref.Ranking) {
			t.Errorf("keep=%d: Ranking diverges from reference", keep)
		}
	}
}

// TestRFEFastPathMatchesReferenceOnTrainSplit repeats the check on the
// exact 80/20 training split the default pipeline uses (seed 1) — the
// dataset the production RFE actually sees inside predict.Pipeline.Run.
func TestRFEFastPathMatchesReferenceOnTrainSplit(t *testing.T) {
	d := severityDataset(t)
	rng := rand.New(rand.NewSource(1))
	train, _, err := d.Split(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{1, 3, 5, 10} {
		fast, err := regress.RFE(train, keep)
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		ref, err := regress.RFEReference(train, keep)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast.Kept, ref.Kept) {
			t.Errorf("keep=%d: Kept %v vs reference %v", keep, fast.Kept, ref.Kept)
		}
		if !reflect.DeepEqual(fast.Ranking, ref.Ranking) {
			t.Errorf("keep=%d: Ranking diverges from reference", keep)
		}
	}
}
