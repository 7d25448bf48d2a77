// Command xvolt-govern simulates the system-software deployment the paper
// argues for (§4.4, §5): an online daemon that trains a severity model
// from offline characterization, then — epoch after epoch — places
// arriving tasks on cores with variation awareness, picks the lowest rail
// voltage whose predicted severity is tolerable, runs the epoch under
// checkpoint/rollback protection, and accounts the energy saved against a
// guardbanded baseline.
//
// Usage:
//
//	xvolt-govern -epochs 20 -tolerance 0
//	xvolt-govern -epochs 50 -tolerance 4     # SDC-tolerant mode (§4.4)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"xvolt/internal/core"
	"xvolt/internal/counters"
	"xvolt/internal/mitigate"
	"xvolt/internal/predict"
	"xvolt/internal/randsrc"
	"xvolt/internal/sched"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func main() {
	epochs := flag.Int("epochs", 20, "number of scheduling epochs to simulate")
	tolerance := flag.Float64("tolerance", 0, "max acceptable predicted severity (0 strict, ≤4 SDC-tolerant)")
	margin := flag.Int("margin", 1, "guardband steps above the model's choice")
	runs := flag.Int("runs", 6, "characterization runs per step for training")
	seed := flag.Int64("seed", 1, "simulation seed")
	saveModels := flag.String("save-models", "", "write the trained model bank to this JSON file")
	loadModels := flag.String("models", "", "load a model bank instead of training")
	parallelism := flag.Int("parallelism", 0, "worker count for the training sweep and per-core model fits (0 = all CPUs)")
	flag.Parse()

	if err := run(os.Stdout, *epochs, *tolerance, *margin, *runs, *seed, *parallelism, *saveModels, *loadModels); err != nil {
		fmt.Fprintln(os.Stderr, "xvolt-govern:", err)
		os.Exit(1)
	}
}

// obtainBank trains a fresh model bank or loads a previously saved one.
// Training characterizes the chip on the campaign engine's own boards, so
// the online phase starts on a freshly booted board either way.
func obtainBank(w io.Writer, chip *silicon.Chip, runs int, seed int64, parallelism int, savePath, loadPath string) (*predict.ModelBank, error) {
	if loadPath != "" {
		f, err := os.Open(loadPath)
		if err != nil {
			return nil, err
		}
		bank, err := predict.LoadBank(f)
		_ = f.Close() // read-only; close failures cannot lose data
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "loaded model bank for chip %s (%d cores)\n", bank.Chip, len(bank.Cores()))
		return bank, nil
	}
	fmt.Fprintln(w, "training severity models from offline characterization...")
	r := core.NewLadderRunner(func() *xgene.Machine { return xgene.New(chip) })
	r.SetParallelism(parallelism)
	trainSet := workload.PredictionSuite()[:20]
	cfg := core.DefaultConfig(trainSet, []int{0, 4})
	cfg.Runs = runs
	cfg.Seed = seed
	results, err := r.Characterize(cfg)
	if err != nil {
		return nil, err
	}
	profiles := predict.CollectProfiles(trainSet, seed+1)
	pipe := predict.DefaultPipeline()
	pipe.Seed = seed
	bank, err := predict.TrainBankN(results, profiles, core.PaperWeights, pipe, parallelism)
	if err != nil {
		return nil, err
	}
	for _, coreID := range bank.Cores() {
		e := bank.ByCore[coreID]
		fmt.Fprintf(w, "  core %d model: R2=%.2f RMSE=%.2f\n", coreID, e.R2, e.RMSE)
	}
	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			return nil, err
		}
		serr := bank.Save(f)
		if cerr := f.Close(); serr == nil {
			// A close failure here is a truncated model bank on disk.
			serr = cerr
		}
		if serr != nil {
			return nil, serr
		}
		fmt.Fprintf(w, "saved model bank to %s\n", savePath)
	}
	return bank, nil
}

func run(w io.Writer, epochs int, tolerance float64, margin, runs int, seed int64, parallelism int, savePath, loadPath string) error {
	chip := silicon.NewChip(silicon.TTT, 1)
	machine := xgene.New(chip)
	rng := randsrc.New(seed)

	bank, err := obtainBank(w, chip, runs, seed, parallelism, savePath, loadPath)
	if err != nil {
		return err
	}
	// Map each core to the trained model of its chip half (sensitive PMDs
	// 0–1 use the core-0 model, robust PMDs 2–3 the core-4 model).
	bankCoreFor := func(coreID int) int {
		if silicon.PMDOf(coreID) <= 1 {
			return 0
		}
		return 4
	}

	// Online: epochs of task arrival → placement → governed voltage →
	// protected execution.
	vminOf := func(spec *workload.Spec, coreID int) units.MilliVolts {
		return chip.Assess(coreID, spec.Profile, spec.Idio(), units.RegimeFull).SafeVmin
	}
	pool := workload.PredictionSuite()
	exec := &mitigate.Executor{
		Machine:     machine,
		SafeVoltage: units.NominalPMD,
		MaxRetries:  3,
		Rng:         rng,
	}

	var energyNominal, energyGoverned float64
	var retries, escalations, crashes int
	for epoch := 0; epoch < epochs; epoch++ {
		// 3–8 tasks arrive.
		n := 3 + rng.Intn(6)
		tasks := make([]*workload.Spec, 0, n)
		seen := map[string]bool{}
		for len(tasks) < n {
			s := pool[rng.Intn(len(pool))]
			if !seen[s.ID()] {
				seen[s.ID()] = true
				tasks = append(tasks, s)
			}
		}
		placement, err := sched.Assign(tasks, vminOf)
		if err != nil {
			return err
		}
		var active []int
		samples := map[int]counters.Sample{}
		for coreID, spec := range placement.ByCore {
			if spec != nil {
				active = append(active, coreID)
				samples[coreID] = counters.Measure(spec, rng)
			}
		}
		governor := &sched.Governor{
			Predict: func(coreID int, v units.MilliVolts) (float64, error) {
				return bank.PredictSeverity(bankCoreFor(coreID), samples[coreID], v)
			},
			MaxSeverity: tolerance,
			Floor:       xgene.MinPMDVoltage,
			Ceiling:     units.NominalPMD,
			MarginSteps: margin,
		}
		choice, err := governor.ChooseVoltage(active)
		if err != nil {
			return err
		}
		if !machine.Responsive() {
			machine.Reset()
		}
		if err := machine.SetPMDVoltage(choice); err != nil {
			return err
		}
		// Run the epoch under protection.
		for _, coreID := range active {
			out, err := exec.Run(placement.ByCore[coreID], coreID, mitigate.Strict)
			if err == mitigate.ErrMachineDown {
				crashes++
				machine.Reset()
				if err := machine.SetPMDVoltage(choice); err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return err
			}
			retries += out.Retries
			if out.Escalated {
				escalations++
			}
		}
		energyNominal += 1.0
		energyGoverned += choice.RelativeSquared()
	}

	fmt.Fprintf(w, "\nsimulated %d epochs at tolerance %.1f (margin %d steps)\n", epochs, tolerance, margin)
	fmt.Fprintf(w, "  energy vs guardbanded baseline: %.1f%% saved\n",
		(1-energyGoverned/energyNominal)*100)
	fmt.Fprintf(w, "  rollbacks: %d, safe-voltage escalations: %d, system crashes: %d\n",
		retries, escalations, crashes)
	fmt.Fprintf(w, "  all delivered outputs validated against golden results\n")
	return nil
}
