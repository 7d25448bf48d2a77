package experiments

import (
	"fmt"
	"io"

	"xvolt/internal/core"
	"xvolt/internal/sched"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// SchedulingResult compares task-placement quality under three Vmin
// knowledge levels (§5: "the predictor ... can also guide task scheduling
// so that tasks are assigned first to more robust cores"):
//
//   - Oracle: the true per-(task, core) safe Vmin (full characterization
//     of the exact mix — unaffordable online),
//   - PerCoreMean: each core's mean Vmin over the training suite plus a
//     guardband — the "naive" §4.3.1 predictor, which knows nothing about
//     the incoming task but everything about core-to-core variation,
//   - Naive: variation-blind in-order placement at the oracle voltage of
//     that placement (what a stock scheduler does).
type SchedulingResult struct {
	OracleVoltage      units.MilliVolts
	PerCoreMeanVoltage units.MilliVolts
	NaiveVoltage       units.MilliVolts
	// Safe reports whether the per-core-mean policy's voltage covered
	// every placed task's true requirement.
	Safe bool
}

// SchedulingWithPrediction characterizes the training suite on all eight
// cores of TTT (to learn per-core means), then places the §5 eight-task
// mix three ways. The finding mirrors §4.3.1: because core-to-core
// variation dominates workload-to-workload variation, even the naive
// per-core mean (plus one guardband step) schedules almost as well as the
// oracle.
func SchedulingWithPrediction(opt Options) (*SchedulingResult, error) {
	opt = opt.normalize()
	chip := silicon.NewChip(silicon.TTT, 1)

	// Learn per-core mean Vmin from a training subset (distinct from the
	// scheduled mix's exact placement question).
	r := opt.runner(func() *xgene.Machine { return xgene.New(chip) })
	train := workload.PredictionSuite()[:12]
	cfg := core.DefaultConfig(train, []int{0, 1, 2, 3, 4, 5, 6, 7})
	cfg.Runs = opt.Runs
	cfg.Seed = opt.Seed
	results, err := r.Characterize(cfg)
	if err != nil {
		return nil, err
	}
	meanByCore := map[int]float64{}
	countByCore := map[int]int{}
	for _, c := range results {
		if v, ok := c.SafeVmin(); ok {
			meanByCore[c.Core] += float64(v)
			countByCore[c.Core]++
		}
	}
	for coreID, n := range countByCore {
		meanByCore[coreID] /= float64(n)
	}

	// The §5 mix and the three Vmin oracles.
	tasks := workload.PrimarySuite()[:8]
	oracle := func(spec *workload.Spec, coreID int) units.MilliVolts {
		return chip.Assess(coreID, spec.Profile, spec.Idio(), units.RegimeFull).SafeVmin
	}
	const guardSteps = 2
	perCoreMean := func(_ *workload.Spec, coreID int) units.MilliVolts {
		v := units.MilliVolts(meanByCore[coreID]).SnapUp()
		return v + guardSteps*units.VoltageStep
	}

	res := &SchedulingResult{}
	opt1, err := sched.Assign(tasks, oracle)
	if err != nil {
		return nil, err
	}
	res.OracleVoltage = opt1.Voltage

	opt2, err := sched.Assign(tasks, perCoreMean)
	if err != nil {
		return nil, err
	}
	// The policy believes its own numbers; the rail it sets is its own
	// estimate, but safety is judged against the true requirements.
	res.PerCoreMeanVoltage = opt2.Voltage
	res.Safe = true
	for coreID, spec := range opt2.ByCore {
		if spec == nil {
			continue
		}
		if oracle(spec, coreID) > opt2.Voltage {
			res.Safe = false
		}
	}

	naive, err := sched.NaiveAssign(tasks, oracle)
	if err != nil {
		return nil, err
	}
	res.NaiveVoltage = naive.Voltage
	return res, nil
}

// RenderScheduling prints the comparison.
func RenderScheduling(w io.Writer, s *SchedulingResult) {
	fmt.Fprintln(w, "Prediction-guided scheduling (§5): rail voltage by knowledge level")
	fmt.Fprintf(w, "  variation-blind (naive order):   %v (%.1f%% saved)\n",
		s.NaiveVoltage, (1-s.NaiveVoltage.RelativeSquared())*100)
	fmt.Fprintf(w, "  per-core mean + guardband:       %v (%.1f%% saved, safe=%v)\n",
		s.PerCoreMeanVoltage, (1-s.PerCoreMeanVoltage.RelativeSquared())*100, s.Safe)
	fmt.Fprintf(w, "  oracle (full characterization):  %v (%.1f%% saved)\n",
		s.OracleVoltage, (1-s.OracleVoltage.RelativeSquared())*100)
	fmt.Fprintln(w, "  core-to-core variation dominates: even the naive per-core predictor")
	fmt.Fprintln(w, "  schedules within a couple of grid steps of the oracle (§4.3.1's lesson)")
}
