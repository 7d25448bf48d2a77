// Prediction: the §4 flow in miniature — characterize a handful of
// benchmarks on one core, profile them with the PMU, train the severity
// regression, then use the model as an online governor that picks a rail
// voltage for a workload it has never seen.
//
//	go run ./examples/prediction
package main

import (
	"fmt"
	"log"
	"math/rand"

	"xvolt/internal/core"
	"xvolt/internal/counters"
	"xvolt/internal/mitigate"
	"xvolt/internal/predict"
	"xvolt/internal/sched"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func main() {
	machine := xgene.New(silicon.NewChip(silicon.TTT, 1))
	runner := core.NewLadderRunner(func() *xgene.Machine { return machine })

	// Phase 1: offline characterization of the training suite on core 0.
	train := workload.PredictionSuite()[:24]
	cfg := core.DefaultConfig(train, []int{0})
	cfg.Runs = 6
	results, err := runner.Characterize(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 2: profiling at nominal conditions.
	profiles := predict.CollectProfiles(train, 7)

	// Phase 3+4: feature selection, training, evaluation.
	dataset, err := predict.BuildSeverityDataset(results, profiles, 0, core.PaperWeights, 0)
	if err != nil {
		log.Fatal(err)
	}
	caseRes, err := predict.DefaultPipeline().Run(dataset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("severity model: R2=%.3f RMSE=%.2f (naive %.2f), features: %v\n",
		caseRes.R2, caseRes.RMSE, caseRes.NaiveRMSE, caseRes.Selected)

	// Online use: an unseen program arrives; profile it, then let the
	// governor walk the voltage down while predicted severity stays 0.
	unseen, err := workload.Lookup("zeusmp/ref")
	if err != nil {
		log.Fatal(err)
	}
	sample := counters.Measure(unseen, rand.New(rand.NewSource(99)))
	governor := &sched.Governor{
		Predict: func(_ int, v units.MilliVolts) (float64, error) {
			return predict.PredictSeverity(caseRes, sample, v)
		},
		MaxSeverity: 0,
		Floor:       760,
		Ceiling:     units.NominalPMD,
		MarginSteps: 1, // one grid step of slack over the prediction
	}
	choice, err := governor.ChooseVoltage([]int{0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("governor chose %v for unseen %s (saving %.1f%%)\n",
		choice, unseen.ID(), (1-choice.RelativeSquared())*100)

	// Prove it out on the machine under mitigation: protected execution
	// must deliver correct outputs at the chosen point.
	if err := machine.SetPMDVoltage(choice); err != nil {
		log.Fatal(err)
	}
	exec := &mitigate.Executor{
		Machine:     machine,
		SafeVoltage: units.NominalPMD,
		MaxRetries:  3,
		Rng:         rand.New(rand.NewSource(5)),
	}
	clean := 0
	for i := 0; i < 20; i++ {
		out, err := exec.Run(unseen, 0, mitigate.Strict)
		if err != nil {
			log.Fatal(err)
		}
		if out.Correct && out.Retries == 0 {
			clean++
		}
	}
	fmt.Printf("protected execution at %v: %d/20 runs clean on the first try\n", choice, clean)
}
