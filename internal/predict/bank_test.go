package predict

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"xvolt/internal/units"

	"xvolt/internal/core"
	"xvolt/internal/counters"
	"xvolt/internal/workload"
)

func trainedBank(t *testing.T) (*ModelBank, Profiles) {
	t.Helper()
	results := characterized(t)
	p := profiles()
	bank, err := TrainBankN(results, p, core.PaperWeights, DefaultPipeline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return bank, p
}

func TestTrainBank(t *testing.T) {
	bank, _ := trainedBank(t)
	if bank.Chip != "TTT" {
		t.Errorf("chip = %q", bank.Chip)
	}
	cores := bank.Cores()
	sort.Ints(cores)
	if len(cores) != 2 || cores[0] != 0 || cores[1] != 4 {
		t.Fatalf("cores = %v", cores)
	}
	for _, c := range cores {
		e := bank.ByCore[c]
		if e.R2 < 0.6 {
			t.Errorf("core %d model R2 = %v", c, e.R2)
		}
		if len(e.Selected) != 5 {
			t.Errorf("core %d selected %d features", c, len(e.Selected))
		}
	}
}

func TestTrainBankEmpty(t *testing.T) {
	if _, err := TrainBankN(nil, profiles(), core.PaperWeights, DefaultPipeline(), 0); err == nil {
		t.Error("empty results accepted")
	}
}

func TestBankPredictSeverity(t *testing.T) {
	bank, p := trainedBank(t)
	sample := p.Samples[0]
	hi, err := bank.PredictSeverity(0, sample, 910)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := bank.PredictSeverity(0, sample, 870)
	if err != nil {
		t.Fatal(err)
	}
	if lo <= hi {
		t.Errorf("severity not increasing downward: %v at 910, %v at 870", hi, lo)
	}
	if _, err := bank.PredictSeverity(7, sample, 900); err == nil {
		t.Error("missing-core prediction accepted")
	}
}

func TestBankSaveLoad(t *testing.T) {
	bank, p := trainedBank(t)
	var buf bytes.Buffer
	if err := bank.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBank(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Loaded bank predicts identically.
	sample := p.Samples[3]
	for _, coreID := range bank.Cores() {
		for _, v := range []int{915, 895, 875} {
			a, err := bank.PredictSeverity(coreID, sample, mv(v))
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.PredictSeverity(coreID, sample, mv(v))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("core %d at %d: %v vs %v", coreID, v, a, b)
			}
		}
	}
}

func TestLoadBankErrors(t *testing.T) {
	if _, err := LoadBank(strings.NewReader("{bad")); err == nil {
		t.Error("corrupt bank accepted")
	}
	if _, err := LoadBank(strings.NewReader(`{"chip":"X","by_core":{}}`)); err == nil {
		t.Error("empty bank accepted")
	}
	if _, err := LoadBank(strings.NewReader(`{"chip":"X","by_core":{"0":{"selected":[],"model":null}}}`)); err == nil {
		t.Error("incomplete entry accepted")
	}
}

// The bank composes with the rest of the stack: a sample for a workload
// never characterized still yields usable, monotone predictions.
func TestBankGeneralizes(t *testing.T) {
	bank, _ := trainedBank(t)
	unseen, err := workload.Lookup("zeusmp/ref")
	if err != nil {
		t.Fatal(err)
	}
	sample := counters.Measure(unseen, newSeededRand(77))
	prev := -1e9
	for v := 930; v >= 860; v -= 10 {
		s, err := bank.PredictSeverity(0, sample, mv(v))
		if err != nil {
			t.Fatal(err)
		}
		_ = s
		// Predictions decrease as voltage rises; walking down they rise.
		if v < 930 && s < prev-1e-9 {
			t.Fatalf("severity non-monotone at %d: %v after %v", v, s, prev)
		}
		prev = s
	}
}

// mv converts an int to a MilliVolts (test shorthand).
func mv(v int) units.MilliVolts { return units.MilliVolts(v) }

// newSeededRand builds a deterministic RNG.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestTrainBankSequentialParallel: the bank must be identical at every
// worker count — per-core fits derive all randomness from the pipeline
// seed, never from scheduling.
func TestTrainBankSequentialParallel(t *testing.T) {
	results := characterized(t)
	p := profiles()
	var banks []*ModelBank
	for _, workers := range []int{1, 2, 4, 0} {
		bank, err := TrainBankN(results, p, core.PaperWeights, DefaultPipeline(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		banks = append(banks, bank)
	}
	for i, bank := range banks[1:] {
		if !reflect.DeepEqual(banks[0], bank) {
			t.Errorf("worker count %d changed the trained bank", i+1)
		}
	}
}
