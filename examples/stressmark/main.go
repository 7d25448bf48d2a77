// Stressmark: automated worst-case workload generation (the di/dt-
// stressmark lineage the paper cites in §7) — search the stress space for
// the workload demanding the most voltage, materialize it as a runnable
// kernel, and characterize it next to the SPEC ceiling.
//
//	go run ./examples/stressmark
package main

import (
	"fmt"
	"log"

	"xvolt/internal/core"
	"xvolt/internal/silicon"
	"xvolt/internal/stressmark"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func main() {
	chip := silicon.NewChip(silicon.TTT, 1)
	const coreID = 4 // the most robust core: the best case for guardbands

	res := stressmark.Search(chip, coreID, stressmark.Options{Seed: 1})
	fmt.Printf("search: %d evaluations → predicted worst-case Vmin %v\n",
		res.Iterations, res.PredictedVmin)
	fmt.Printf("profile: pipeline=%.2f fpu=%.2f memory=%.2f branch=%.2f ilp=%.2f\n",
		res.Profile.Pipeline, res.Profile.FPU, res.Profile.Memory,
		res.Profile.Branch, res.Profile.ILP)

	// Materialize and characterize it like any benchmark.
	spec := stressmark.BuildSpec("stressmark", res.Profile, 300)
	runner := core.NewLadderRunner(func() *xgene.Machine { return xgene.New(chip) })
	cfg := core.DefaultConfig([]*workload.Spec{spec}, []int{coreID})
	results, err := runner.Characterize(cfg)
	if err != nil {
		log.Fatal(err)
	}
	vmin, _ := results[0].SafeVmin()
	fmt.Printf("measured stressmark Vmin on core %d: %v\n", coreID, vmin)

	// Compare against the SPEC ceiling (bwaves).
	bw, err := workload.Lookup("bwaves/ref")
	if err != nil {
		log.Fatal(err)
	}
	cfg2 := core.DefaultConfig([]*workload.Spec{bw}, []int{coreID})
	results2, err := runner.Characterize(cfg2)
	if err != nil {
		log.Fatal(err)
	}
	bwVmin, _ := results2[0].SafeVmin()
	fmt.Printf("bwaves (worst SPEC program) Vmin:    %v\n", bwVmin)
	if vmin > bwVmin {
		fmt.Printf("a benchmark-only guardband under-covers the stressmark by %d mV on this core\n",
			int(vmin-bwVmin))
	} else {
		fmt.Println("on this core the SPEC ceiling already covers the synthetic worst case —")
		fmt.Println("the stressmark certifies the benchmark-derived guardband instead of breaking it")
	}
}
