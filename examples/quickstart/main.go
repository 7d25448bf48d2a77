// Quickstart: boot a simulated X-Gene 2, undervolt one benchmark on one
// core with the automated characterization framework, and print the
// regions of operation it finds.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"xvolt/internal/core"
	"xvolt/internal/silicon"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func main() {
	// The campaign engine over a freshly booted board with a
	// nominal-corner ("TTT") die.
	runner := core.NewLadderRunner(func() *xgene.Machine {
		return xgene.New(silicon.NewChip(silicon.TTT, 1))
	})

	// Characterize bwaves on the chip's most robust core (core 4) with the
	// paper's protocol: 2.4 GHz under test, 300 MHz elsewhere, 10 runs per
	// 5 mV step, sweeping down from the 980 mV nominal.
	bwaves, err := workload.Lookup("bwaves/ref")
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig([]*workload.Spec{bwaves}, []int{4})

	results, err := runner.Characterize(cfg)
	if err != nil {
		log.Fatal(err)
	}

	c := results[0]
	vmin, _ := c.SafeVmin()
	crash, _ := c.CrashVoltage()
	fmt.Printf("bwaves on %s core %d @ %v\n", c.Chip, c.Core, c.Frequency)
	fmt.Printf("  safe Vmin:      %v (guardband %.1f%%, energy saving %.1f%%)\n",
		vmin, vmin.GuardbandFraction()*100, (1-vmin.RelativeSquared())*100)
	fmt.Printf("  crash region:   below %v\n", crash)
	fmt.Printf("  watchdog power-cycled the board %d times\n", runner.Recoveries())

	fmt.Println("\n  voltage  region  severity")
	for _, step := range c.Steps {
		fmt.Printf("  %7v  %-6s  %5.1f\n",
			step.Voltage, step.Region(), step.Severity(core.PaperWeights))
	}
}
