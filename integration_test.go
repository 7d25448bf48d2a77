// End-to-end integration test: the whole xvolt story in one flow —
// characterize, persist, reload, train, schedule, govern, execute under
// protection, and account the savings. Every module boundary is crossed
// with real data.
package xvolt

import (
	"bytes"
	"math/rand"
	"testing"

	"xvolt/internal/core"
	"xvolt/internal/counters"
	"xvolt/internal/csvutil"
	"xvolt/internal/energy"
	"xvolt/internal/mitigate"
	"xvolt/internal/predict"
	"xvolt/internal/sched"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func TestEndToEnd(t *testing.T) {
	// 1. Characterize a training set on a sensitive and a robust core.
	chip := silicon.NewChip(silicon.TTT, 1)
	machine := xgene.New(chip)
	fw := core.New(machine)
	// Large enough to retain every event of the study (the default bound
	// would evict the earliest campaigns).
	fw.SetTrace(trace.New(1 << 18))
	trainSet := workload.PredictionSuite()[:16]
	cfg := core.DefaultConfig(trainSet, []int{0, 4})
	cfg.Runs = 5
	records, err := fw.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := core.Parse(records)
	if len(results) != len(trainSet)*2 {
		t.Fatalf("parsed %d campaigns, want %d", len(results), len(trainSet)*2)
	}

	// 2. Persist the study as CSV and reload it — downstream consumers
	// work from files, not memory.
	var buf bytes.Buffer
	if err := csvutil.WriteCampaigns(&buf, results, core.PaperWeights); err != nil {
		t.Fatal(err)
	}
	reloaded, err := csvutil.ReadCampaigns(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != len(results) {
		t.Fatalf("reload lost campaigns: %d vs %d", len(reloaded), len(results))
	}

	// 3. Train the per-core severity model bank from the reloaded study.
	profiles := predict.CollectProfiles(trainSet, 9)
	bank, err := predict.TrainBankN(reloaded, profiles, core.PaperWeights, predict.DefaultPipeline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var bankBlob bytes.Buffer
	if err := bank.Save(&bankBlob); err != nil {
		t.Fatal(err)
	}
	bank, err = predict.LoadBank(&bankBlob)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Schedule an unseen workload mix with variation awareness.
	mix := workload.PrimarySuite()[:6]
	vminOf := func(spec *workload.Spec, coreID int) units.MilliVolts {
		return chip.Assess(coreID, spec.Profile, spec.Idio(), units.RegimeFull).SafeVmin
	}
	placement, err := sched.Assign(mix, vminOf)
	if err != nil {
		t.Fatal(err)
	}

	// 5. Govern the rail from the model bank's predictions.
	rng := rand.New(rand.NewSource(5))
	samples := map[int]counters.Sample{}
	var active []int
	for coreID, spec := range placement.ByCore {
		if spec != nil {
			active = append(active, coreID)
			samples[coreID] = counters.Measure(spec, rng)
		}
	}
	bankCoreFor := func(coreID int) int {
		if silicon.PMDOf(coreID) <= 1 {
			return 0
		}
		return 4
	}
	gov := &sched.Governor{
		Predict: func(coreID int, v units.MilliVolts) (float64, error) {
			return bank.PredictSeverity(bankCoreFor(coreID), samples[coreID], v)
		},
		MaxSeverity: 0,
		Floor:       xgene.MinPMDVoltage,
		Ceiling:     units.NominalPMD,
		MarginSteps: 1,
	}
	choice, err := gov.ChooseVoltage(active)
	if err != nil {
		t.Fatal(err)
	}
	if choice >= units.NominalPMD {
		t.Fatalf("governor harvested nothing: %v", choice)
	}
	savings := energy.VoltageSavings(choice)
	if savings < 0.05 {
		t.Errorf("governed savings %.3f suspiciously small", savings)
	}

	// 6. Execute the governed epoch under checkpoint/rollback protection:
	// every output must validate.
	if err := machine.SetPMDVoltage(choice); err != nil {
		t.Fatal(err)
	}
	exec := &mitigate.Executor{
		Machine:     machine,
		SafeVoltage: units.NominalPMD,
		MaxRetries:  3,
		Rng:         rng,
	}
	for _, coreID := range active {
		out, err := exec.Run(placement.ByCore[coreID], coreID, mitigate.Strict)
		if err == mitigate.ErrMachineDown {
			t.Fatalf("governed voltage %v crashed the system", choice)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct {
			t.Fatalf("core %d delivered a wrong output under protection", coreID)
		}
	}

	// 7. The trace recorded the whole story.
	starts := 0
	for _, e := range fw.Trace().Events() {
		if e.Kind == trace.CampaignStart {
			starts++
		}
	}
	if starts != len(trainSet)*2 {
		t.Errorf("trace campaigns = %d", starts)
	}
	if fw.Watchdog().Recoveries() == 0 {
		t.Error("characterization never crashed — sweep too shallow to be real")
	}
	t.Logf("end-to-end: governed %d tasks at %v (%.1f%% savings), %d recoveries during characterization",
		len(active), choice, savings*100, fw.Watchdog().Recoveries())
}
