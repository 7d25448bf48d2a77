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

// EnhancementRow summarizes one §6 hardware configuration characterized
// on the sensitive core with bwaves.
type EnhancementRow struct {
	Config string
	// SafeVmin is the measured safe point.
	SafeVmin units.MilliVolts
	// CEOnlyBand is the width of the voltage band, directly below the safe
	// point, whose steps show corrected errors (or nothing) but no
	// SDC/UE/AC/SC — the ECC-guided speculation opportunity of refs [9,10].
	CEOnlyBand units.MilliVolts
	// FirstEffectSDC reports whether the first abnormal step contains SDCs.
	FirstEffectSDC bool
	// PerfCost is the throughput cost of the configuration (adaptive
	// clocking stretches cycles while engaged).
	PerfCost float64
}

// EnhancementsResult is the §6 ablation study.
type EnhancementsResult struct {
	// Baseline, StrongECC and Adaptive characterize bwaves on TTT core 0
	// under the three hardware configurations.
	Baseline, StrongECC, Adaptive EnhancementRow
	// SharedRailSavings / PerPMDRailSavings compare the §5 eight-benchmark
	// mix at full speed under the stock single rail versus the §6
	// finer-grained per-PMD rails.
	SharedRailSavings float64
	PerPMDRailSavings float64
}

// characterizeConfig sweeps bwaves on core 0 under one hardware config.
func characterizeConfig(opt Options, name string, prot silicon.Protection, perfCost float64) (EnhancementRow, error) {
	chip := silicon.NewChip(silicon.TTT, 1)
	r := opt.runner(func() *xgene.Machine {
		m := xgene.New(chip)
		m.SetProtection(prot)
		return m
	})
	spec, err := workload.Lookup("bwaves/ref")
	if err != nil {
		return EnhancementRow{}, err
	}
	cfg := core.DefaultConfig([]*workload.Spec{spec}, []int{0})
	cfg.Runs = opt.Runs
	cfg.Seed = opt.Seed
	results, err := r.Characterize(cfg)
	if err != nil {
		return EnhancementRow{}, err
	}
	c := results[0]
	row := EnhancementRow{Config: name, PerfCost: perfCost}
	if v, ok := c.SafeVmin(); ok {
		row.SafeVmin = v
	}
	if obs, ok := c.FirstAbnormalEffects(); ok {
		row.FirstEffectSDC = obs.SDC
	}
	// CE-only band: contiguous steps below the safe point whose tallies
	// contain at most corrected errors.
	inBand := false
	for _, s := range c.Steps {
		if s.Voltage >= row.SafeVmin {
			continue
		}
		t := s.Tally
		ceOnly := t.SDC == 0 && t.UE == 0 && t.AC == 0 && t.SC == 0
		if ceOnly {
			row.CEOnlyBand += units.VoltageStep
			inBand = true
		} else if inBand || !ceOnly {
			break
		}
	}
	return row, nil
}

// DesignEnhancements runs the §6 ablation study. fig9 supplies the
// eight-benchmark per-PMD requirements for the rail comparison; pass nil
// to have it measured with the same options.
func DesignEnhancements(opt Options, fig9 *Fig9Result) (*EnhancementsResult, error) {
	opt = opt.normalize()
	out := &EnhancementsResult{}
	var err error
	if out.Baseline, err = characterizeConfig(opt, "stock (SECDED)", silicon.Stock(), 0); err != nil {
		return nil, err
	}
	if out.StrongECC, err = characterizeConfig(opt, "stronger ECC (DECTED)", silicon.Protection{ECC: silicon.DECTED}, 0); err != nil {
		return nil, err
	}
	if out.Adaptive, err = characterizeConfig(opt, "adaptive clocking", silicon.Protection{AdaptiveClocking: true}, silicon.AdaptiveSlowdown); err != nil {
		return nil, err
	}

	if fig9 == nil {
		if fig9, err = Figure9(opt); err != nil {
			return nil, err
		}
	}
	// Shared rail: the whole chip runs at the maximum requirement.
	shared := units.MilliVolts(0)
	perPMDPower := 0.0
	for _, r := range fig9.Requirements {
		if r.FullSpeed > shared {
			shared = r.FullSpeed
		}
		perPMDPower += r.FullSpeed.RelativeSquared()
	}
	n := float64(len(fig9.Requirements))
	if n > 0 {
		perPMDPower /= n
	}
	out.SharedRailSavings = 1 - shared.RelativeSquared()
	out.PerPMDRailSavings = 1 - perPMDPower
	return out, nil
}

// RenderEnhancements prints the §6 ablation study.
func RenderEnhancements(w io.Writer, e *EnhancementsResult) {
	fmt.Fprintln(w, "Design enhancements (§6): what the paper's recommendations buy")
	for _, row := range []EnhancementRow{e.Baseline, e.StrongECC, e.Adaptive} {
		fmt.Fprintf(w, "  %-22s safe Vmin %v, CE-only band %2d mV, SDC-first=%v, perf cost %.1f%%\n",
			row.Config, row.SafeVmin, int(row.CEOnlyBand), row.FirstEffectSDC, row.PerfCost*100)
	}
	fmt.Fprintf(w, "  voltage domains: shared rail saves %.1f%%, per-PMD rails %.1f%% (+%.1f points)\n",
		e.SharedRailSavings*100, e.PerPMDRailSavings*100,
		(e.PerPMDRailSavings-e.SharedRailSavings)*100)
}

// ComparisonRow summarizes one failure model's behavior.
type ComparisonRow struct {
	Model          string
	SafeVmin       units.MilliVolts
	CEOnlyBand     units.MilliVolts
	FirstEffectSDC bool
}

// ItaniumComparison reproduces the §3.4 cross-architecture argument: the
// same benchmark on the same die under the X-Gene failure physics versus
// the Itanium-like (ECC-first) physics of refs [9, 10].
func ItaniumComparison(opt Options) ([2]ComparisonRow, error) {
	opt = opt.normalize()
	var out [2]ComparisonRow
	chip := silicon.NewChip(silicon.TTT, 1)
	for i, model := range []silicon.Model{silicon.XGene, silicon.Itanium} {
		r := opt.runner(func() *xgene.Machine { return xgene.NewWithModel(chip, model) })
		spec, err := workload.Lookup("bwaves/ref")
		if err != nil {
			return out, err
		}
		cfg := core.DefaultConfig([]*workload.Spec{spec}, []int{0})
		cfg.Runs = opt.Runs
		cfg.Seed = opt.Seed
		results, err := r.Characterize(cfg)
		if err != nil {
			return out, err
		}
		c := results[0]
		row := ComparisonRow{Model: model.String()}
		if v, ok := c.SafeVmin(); ok {
			row.SafeVmin = v
		}
		if obs, ok := c.FirstAbnormalEffects(); ok {
			row.FirstEffectSDC = obs.SDC
		}
		for _, s := range c.Steps {
			t := s.Tally
			if s.Region() != core.Safe && t.SDC == 0 && t.UE == 0 && t.AC == 0 && t.SC == 0 {
				row.CEOnlyBand += units.VoltageStep
			}
		}
		out[i] = row
	}
	return out, nil
}

// RenderItaniumComparison prints the model comparison.
func RenderItaniumComparison(w io.Writer, rows [2]ComparisonRow) {
	fmt.Fprintln(w, "Failure-physics comparison (§3.4): X-Gene vs Itanium-like behavior")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s safe Vmin %v, CE-only band %2d mV, first effect has SDC: %v\n",
			r.Model, r.SafeVmin, int(r.CEOnlyBand), r.FirstEffectSDC)
	}
	fmt.Fprintln(w, "  paper: Itanium parts expose a wide CE-only band usable for ECC-guided")
	fmt.Fprintln(w, "  voltage speculation; the X-Gene 2 does not — SDCs come first.")
}
