package predict

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"xvolt/internal/core"
	"xvolt/internal/counters"
	"xvolt/internal/regress"
	"xvolt/internal/units"
)

// ModelBank holds one fitted severity model per core, trained from a
// characterization study — the artifact a deployed governor loads at boot.
type ModelBank struct {
	// Chip names the part the models were trained on.
	Chip string `json:"chip"`
	// ByCore maps the core index to its model and metadata.
	ByCore map[int]*BankEntry `json:"by_core"`
}

// BankEntry is one core's trained model.
type BankEntry struct {
	Selected  []string       `json:"selected"`
	TrainMean float64        `json:"train_mean"`
	R2        float64        `json:"r2"`
	RMSE      float64        `json:"rmse"`
	Model     *regress.Model `json:"model"`
}

// TrainBank fits a severity model for every core present in the
// characterization results, using the paper's pipeline settings. It is
// TrainBankN with the default worker count.
func TrainBank(results []*core.CampaignResult, profiles Profiles, w core.Weights, pipe Pipeline) (*ModelBank, error) {
	return TrainBankN(results, profiles, w, pipe, 0)
}

// TrainBankN is TrainBank on a bounded worker pool of the given size
// (≤ 0 means GOMAXPROCS). Per-core fits are independent — every core's
// pipeline run derives its RNG from pipe.Seed alone — so the bank is
// identical at any worker count; entries land in per-core slots and
// errors are reported in ascending core order, exactly like a
// sequential sweep.
func TrainBankN(results []*core.CampaignResult, profiles Profiles, w core.Weights, pipe Pipeline, workers int) (*ModelBank, error) {
	coresSeen := map[int]bool{}
	chip := ""
	for _, r := range results {
		coresSeen[r.Core] = true
		chip = r.Chip
	}
	if len(coresSeen) == 0 {
		return nil, errors.New("predict: no campaign results to train from")
	}
	coreIDs := make([]int, 0, len(coresSeen))
	for coreID := range coresSeen {
		coreIDs = append(coreIDs, coreID)
	}
	sort.Ints(coreIDs)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(coreIDs) {
		workers = len(coreIDs)
	}
	entries := make([]*BankEntry, len(coreIDs))
	errs := make([]error, len(coreIDs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				entries[idx], errs[idx] = trainCore(results, profiles, coreIDs[idx], w, pipe)
			}
		}()
	}
	for idx := range coreIDs {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	bank := &ModelBank{Chip: chip, ByCore: map[int]*BankEntry{}}
	for idx, coreID := range coreIDs {
		bank.ByCore[coreID] = entries[idx]
	}
	return bank, nil
}

// trainCore fits one core's severity model.
func trainCore(results []*core.CampaignResult, profiles Profiles, coreID int, w core.Weights, pipe Pipeline) (*BankEntry, error) {
	d, err := BuildSeverityDataset(results, profiles, coreID, w, 0)
	if err != nil {
		return nil, fmt.Errorf("core %d: %w", coreID, err)
	}
	res, err := pipe.Run(d)
	if err != nil {
		return nil, fmt.Errorf("core %d: %w", coreID, err)
	}
	return &BankEntry{
		Selected:  res.Selected,
		TrainMean: res.TrainMean,
		R2:        res.R2,
		RMSE:      res.RMSE,
		Model:     res.Model,
	}, nil
}

// PredictSeverity evaluates the bank's model for a core on a counter
// sample at a voltage.
func (b *ModelBank) PredictSeverity(coreID int, sample counters.Sample, v units.MilliVolts) (float64, error) {
	entry, ok := b.ByCore[coreID]
	if !ok {
		return 0, fmt.Errorf("predict: no model for core %d", coreID)
	}
	return PredictSeverity(CaseResult{Selected: entry.Selected, Model: entry.Model}, sample, v)
}

// Cores lists the cores the bank covers, in ascending order.
func (b *ModelBank) Cores() []int {
	out := make([]int, 0, len(b.ByCore))
	for c := range b.ByCore {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Save serializes the bank as JSON.
func (b *ModelBank) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(b)
}

// LoadBank restores a bank written by Save.
func LoadBank(r io.Reader) (*ModelBank, error) {
	var b ModelBank
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("predict: corrupt model bank: %w", err)
	}
	if len(b.ByCore) == 0 {
		return nil, errors.New("predict: empty model bank")
	}
	for coreID, e := range b.ByCore {
		if e == nil || e.Model == nil || len(e.Selected) == 0 {
			return nil, fmt.Errorf("predict: core %d entry incomplete", coreID)
		}
		if len(e.Selected) != len(e.Model.Coef) {
			return nil, fmt.Errorf("predict: core %d selected/coef mismatch", coreID)
		}
	}
	return &b, nil
}
