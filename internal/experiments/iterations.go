package experiments

import (
	"fmt"
	"io"

	"xvolt/internal/core"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// IterationRow is the measured Vmin under one repetition policy.
type IterationRow struct {
	// Runs is the per-step repetition count.
	Runs int
	// Campaigns is how many independent campaigns were aggregated.
	Campaigns int
	// WorstVmin is the highest Vmin over the campaigns — the paper's
	// reporting rule ("the highest Vmin values ... of the ten campaigns").
	WorstVmin units.MilliVolts
	// BestVmin is the lowest (the optimistic error a lazy campaign makes).
	BestVmin units.MilliVolts
}

// Spread is the measurement uncertainty the policy leaves.
func (r IterationRow) Spread() units.MilliVolts { return r.WorstVmin - r.BestVmin }

// IterationStudy quantifies §2.2.1's "Massive Iterative Execution"
// argument: with few runs per voltage step, a campaign can sail through a
// marginally-unsafe step without observing any effect and report an
// optimistically low Vmin; repetition tightens the estimate. The study
// measures bwaves on TTT core 0 under several repetition policies, each
// aggregated over several independent campaigns.
func IterationStudy(campaigns int, seed int64) ([]IterationRow, error) {
	if campaigns < 1 {
		campaigns = 5
	}
	spec, err := workload.Lookup("bwaves/ref")
	if err != nil {
		return nil, err
	}
	chip := silicon.NewChip(silicon.TTT, 1)
	r := core.NewLadderRunner(func() *xgene.Machine { return xgene.New(chip) })
	var out []IterationRow
	for _, runs := range []int{1, 3, 10} {
		row := IterationRow{Runs: runs, Campaigns: campaigns}
		for c := 0; c < campaigns; c++ {
			cfg := core.DefaultConfig([]*workload.Spec{spec}, []int{0})
			cfg.Runs = runs
			cfg.Seed = seed + int64(c) + int64(runs)*1000
			results, err := r.Characterize(cfg)
			if err != nil {
				return nil, err
			}
			v, ok := results[0].SafeVmin()
			if !ok {
				return nil, fmt.Errorf("experiments: campaign %d found no Vmin", c)
			}
			if row.WorstVmin == 0 || v > row.WorstVmin {
				row.WorstVmin = v
			}
			if row.BestVmin == 0 || v < row.BestVmin {
				row.BestVmin = v
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderIterationStudy prints the repetition study.
func RenderIterationStudy(w io.Writer, rows []IterationRow) {
	fmt.Fprintln(w, "Iterative execution (§2.2.1): Vmin estimate vs repetitions per step")
	for _, r := range rows {
		fmt.Fprintf(w, "  %2d run(s)/step over %d campaigns: Vmin %v–%v (spread %d mV)\n",
			r.Runs, r.Campaigns, r.BestVmin, r.WorstVmin, int(r.Spread()))
	}
	fmt.Fprintln(w, "  the paper repeats every campaign 10 times and reports the highest Vmin")
}
