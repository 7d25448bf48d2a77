package experiments

import (
	"fmt"
	"io"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
)

// PhaseRow reports one phase's measured requirement.
type PhaseRow struct {
	Name     string
	Weight   float64
	SafeVmin units.MilliVolts
}

// PhasedResult compares whole-program against per-phase voltage governing
// for a phased workload on one core: the whole program must run at its
// worst phase's requirement, while a phase-aware governor re-scales the
// rail at phase boundaries.
type PhasedResult struct {
	Core int
	Rows []PhaseRow
	// WholeProgramVmin is the max requirement over phases.
	WholeProgramVmin units.MilliVolts
	// WholeSavings / PhasedSavings are the dynamic-energy savings of the
	// two policies against nominal (runtime-weighted V² for the phased
	// one).
	WholeSavings  float64
	PhasedSavings float64
}

// PhasedGoverning builds a representative two-phase program — a
// memory-bound setup phase (mcf-like) and a compute-bound solve phase
// (bwaves-like) — measures each phase's requirement on the given core of
// the TTT part via the silicon oracle, and accounts both policies.
func PhasedGoverning(coreID int) (*PhasedResult, error) {
	mcf, err := workload.Lookup("mcf/ref")
	if err != nil {
		return nil, err
	}
	bwaves, err := workload.Lookup("bwaves/ref")
	if err != nil {
		return nil, err
	}
	prog, err := workload.NewPhased([]workload.Phase{
		{Spec: mcf, Weight: 0.4},
		{Spec: bwaves, Weight: 0.6},
	})
	if err != nil {
		return nil, err
	}
	chip := silicon.NewChip(silicon.TTT, 1)
	res := &PhasedResult{Core: coreID}
	var weightedSq float64
	for _, ph := range prog.Phases {
		v := chip.Assess(coreID, ph.Spec.Profile, ph.Spec.Idio(), units.RegimeFull).SafeVmin
		res.Rows = append(res.Rows, PhaseRow{Name: ph.Spec.Name, Weight: ph.Weight, SafeVmin: v})
		if v > res.WholeProgramVmin {
			res.WholeProgramVmin = v
		}
		weightedSq += ph.Weight * v.RelativeSquared()
	}
	res.WholeSavings = 1 - res.WholeProgramVmin.RelativeSquared()
	res.PhasedSavings = 1 - weightedSq
	return res, nil
}

// RenderPhased prints the comparison.
func RenderPhased(w io.Writer, p *PhasedResult) {
	fmt.Fprintf(w, "Phase-aware governing (extension) on core %d\n", p.Core)
	for _, r := range p.Rows {
		fmt.Fprintf(w, "  phase %-8s weight %.0f%%  needs %v\n", r.Name, r.Weight*100, r.SafeVmin)
	}
	fmt.Fprintf(w, "  whole-program rail %v: %.1f%% energy saved\n",
		p.WholeProgramVmin, p.WholeSavings*100)
	fmt.Fprintf(w, "  per-phase rails:       %.1f%% energy saved (+%.1f points)\n",
		p.PhasedSavings*100, (p.PhasedSavings-p.WholeSavings)*100)
}
