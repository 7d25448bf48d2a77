package experiments

import (
	"fmt"
	"io"

	"xvolt/internal/randsrc"
	"xvolt/internal/sched"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// PowerResult closes the loop between the analytic savings model (what the
// paper reports) and the board's own power telemetry (PMpro estimates
// sampled while actually running the workload at each operating point).
type PowerResult struct {
	// NominalWatts / UndervoltedWatts are PMpro board-power readings with
	// the 8-benchmark mix running at nominal and at the placement's
	// required voltage.
	NominalWatts     float64
	UndervoltedWatts float64
	// MeasuredSavings is the telemetry-based saving; AnalyticSavings is
	// the 1−(V/980)² model applied to the same operating point (on the
	// dynamic PMD power only — the board adds leakage and the SoC rail,
	// which undervolting the PMDs does not touch, so the measured board
	// number is smaller).
	MeasuredSavings float64
	AnalyticSavings float64
	// Voltage is the placement's required rail.
	Voltage units.MilliVolts
}

// MeasuredPower places the §5 mix with the variation-aware scheduler, runs
// it at nominal and at the harvested voltage, and reads the PMpro power
// estimate both times.
func MeasuredPower(opt Options) (*PowerResult, error) {
	opt = opt.normalize()
	chip := silicon.NewChip(silicon.TTT, 1)
	m := xgene.New(chip)
	rng := randsrc.New(opt.Seed)

	vmin := func(spec *workload.Spec, coreID int) units.MilliVolts {
		return chip.Assess(coreID, spec.Profile, spec.Idio(), units.RegimeFull).SafeVmin
	}
	tasks := workload.PrimarySuite()[:8]
	placement, err := sched.Assign(tasks, vmin)
	if err != nil {
		return nil, err
	}

	runMix := func() error {
		for coreID, spec := range placement.ByCore {
			if spec == nil {
				continue
			}
			if _, err := m.RunOnCore(coreID, spec, rng); err != nil {
				return err
			}
		}
		return nil
	}

	res := &PowerResult{Voltage: placement.Voltage}
	if err := runMix(); err != nil {
		return nil, err
	}
	res.NominalWatts = m.EstimatePower()

	if err := m.SetPMDVoltage(placement.Voltage); err != nil {
		return nil, err
	}
	if err := runMix(); err != nil {
		return nil, err
	}
	res.UndervoltedWatts = m.EstimatePower()

	res.MeasuredSavings = 1 - res.UndervoltedWatts/res.NominalWatts
	res.AnalyticSavings = 1 - placement.Voltage.RelativeSquared()
	return res, nil
}

// RenderMeasuredPower prints the telemetry-vs-model comparison.
func RenderMeasuredPower(w io.Writer, p *PowerResult) {
	fmt.Fprintln(w, "Power telemetry vs analytic model (§5, 8-benchmark mix)")
	fmt.Fprintf(w, "  placement rail: %v\n", p.Voltage)
	fmt.Fprintf(w, "  PMpro board power: %.1f W nominal -> %.1f W undervolted (%.1f%% board saving)\n",
		p.NominalWatts, p.UndervoltedWatts, p.MeasuredSavings*100)
	fmt.Fprintf(w, "  analytic PMD-dynamic model: %.1f%% (board number is lower: leakage\n",
		p.AnalyticSavings*100)
	fmt.Fprintln(w, "  and the PCP/SoC rail are untouched by PMD undervolting)")
}
