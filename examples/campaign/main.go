// Campaign: the §3 multi-chip characterization study end to end — three
// process corners, ten benchmarks, all eight cores — written out as the
// CSV files the paper's parsing phase produces, plus the §3.2 guardband
// summary.
//
//	go run ./examples/campaign            # writes results-<chip>.csv
package main

import (
	"fmt"
	"log"
	"os"

	"xvolt/internal/core"
	"xvolt/internal/csvutil"
	"xvolt/internal/energy"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func main() {
	for _, chip := range silicon.PaperChips() {
		if err := characterizeChip(chip); err != nil {
			log.Fatal(err)
		}
	}
}

func characterizeChip(chip *silicon.Chip) error {
	fmt.Printf("=== chip %s (leakage %.2fx) ===\n", chip.Name, chip.Corner().Leakage())
	runner := core.NewLadderRunner(func() *xgene.Machine { return xgene.New(chip) })

	cfg := core.DefaultConfig(workload.PrimarySuite(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	cfg.Runs = 5 // half the paper's repetitions to keep the demo snappy
	results, err := runner.Characterize(cfg)
	if err != nil {
		return err
	}

	// Parsing-phase output: one CSV per chip.
	path := fmt.Sprintf("results-%s.csv", chip.Name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := csvutil.WriteCampaigns(f, results, core.PaperWeights)
	if cerr := f.Close(); werr == nil {
		werr = cerr // a failed close truncates the CSV
	}
	if werr != nil {
		return werr
	}

	// §3.2 reduction: most robust core per benchmark → guardband summary.
	var vmins []units.MilliVolts
	for _, spec := range workload.PrimarySuite() {
		best := units.MilliVolts(0)
		found := false
		for _, c := range results {
			if c.Benchmark != spec.Name {
				continue
			}
			if v, ok := c.SafeVmin(); ok && (!found || v < best) {
				best, found = v, true
			}
		}
		if found {
			fmt.Printf("  %-11s robust-core Vmin %v\n", spec.Name, best)
			vmins = append(vmins, best)
		}
	}
	summary, err := energy.Summarize(chip.Name, vmins)
	if err != nil {
		return err
	}
	fmt.Printf("  guardband: %v–%v, guaranteed savings %.1f%%\n", summary.BestVmin, summary.WorstVmin, summary.MinSavings*100)
	fmt.Printf("  wrote %s (%d campaigns, %d recoveries)\n\n",
		path, len(results), runner.Recoveries())
	return nil
}
