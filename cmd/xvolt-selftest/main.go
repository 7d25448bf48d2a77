// Command xvolt-selftest reproduces the §3.4 component localization:
// cache march tests versus ALU/FPU random-operation stress, run through
// the characterization framework, showing that the X-Gene 2 model is
// timing-path limited while the SRAM arrays survive far lower voltages.
package main

import (
	"flag"
	"fmt"
	"os"

	"xvolt/internal/experiments"
	"xvolt/internal/selftest"
	"xvolt/internal/silicon"
	"xvolt/internal/xgene"
)

func main() {
	runs := flag.Int("runs", 10, "runs per voltage step")
	coreID := flag.Int("core", 4, "core under test")
	chipName := flag.String("chip", "TTT", "process corner: TTT, TFF or TSS")
	flag.Parse()

	corner, err := silicon.ParseCorner(*chipName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xvolt-selftest:", err)
		os.Exit(1)
	}
	m := xgene.New(silicon.PaperChip(corner))
	findings, err := selftest.Localize(m, *coreID, *runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xvolt-selftest:", err)
		os.Exit(1)
	}
	experiments.RenderSelfTests(os.Stdout, findings)
}
