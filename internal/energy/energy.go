// Package energy implements the paper's §5 energy/performance accounting:
// the relative power model behind Fig. 9, the guardband→savings conversion
// quoted throughout §3.2 and §5, and the trade-off curve generator that
// downshifts the weakest PMDs to harvest deeper voltage margins.
//
// The model reproduces Fig. 9's coordinates exactly for the five operating
// points where the paper's own text and figure agree:
//
//	P_rel = mean over PMDs of (f/2400)·(V/980)²,  Perf_rel = mean of f/2400
//
// (the figure's sixth point is internally inconsistent with the text's
// 69.9 % power saving at 760 mV/1.2 GHz; we reproduce the model and report
// both — see DESIGN.md §4).
package energy

import (
	"errors"
	"fmt"
	"sort"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
)

// OperatingPoint is one chip-wide configuration: the shared rail voltage
// and each PMD's clock.
type OperatingPoint struct {
	Voltage     units.MilliVolts
	Frequencies [silicon.NumPMDs]units.MegaHertz
}

// Nominal returns the stock operating point: 980 mV, all PMDs at 2.4 GHz.
func Nominal() OperatingPoint {
	return OperatingPoint{
		Voltage: units.NominalPMD,
		Frequencies: [silicon.NumPMDs]units.MegaHertz{
			units.MaxFrequency, units.MaxFrequency, units.MaxFrequency, units.MaxFrequency,
		},
	}
}

// RelativePower is the paper's dynamic-power ratio against nominal:
// mean over PMDs of (f/2400)·(V/980)².
func (p OperatingPoint) RelativePower() float64 {
	sum := 0.0
	for _, f := range p.Frequencies {
		sum += (f.GHz() / units.MaxFrequency.GHz()) * p.Voltage.RelativeSquared()
	}
	return sum / silicon.NumPMDs
}

// RelativePerformance is the throughput ratio for a compute-bound
// multiprogrammed workload spread over all PMDs: mean of f/2400.
func (p OperatingPoint) RelativePerformance() float64 {
	sum := 0.0
	for _, f := range p.Frequencies {
		sum += f.GHz() / units.MaxFrequency.GHz()
	}
	return sum / silicon.NumPMDs
}

// PowerSavings is 1 − RelativePower, in [0, 1).
func (p OperatingPoint) PowerSavings() float64 { return 1 - p.RelativePower() }

// VoltageSavings converts a voltage-only undervolt at full frequency into
// the paper's "energy saving" percentage: 1 − (V/980)². The §3.2/§5
// anchors: 880 mV → 19.4 %, 885 → 18.4 %, 900 → 15.7 %, 915 → 12.8 %.
func VoltageSavings(v units.MilliVolts) float64 {
	return 1 - v.RelativeSquared()
}

// PMDRequirement is a PMD's safe-voltage need for its assigned workloads.
type PMDRequirement struct {
	PMD int
	// FullSpeed is the safe Vmin at 2.4 GHz for the worst workload/core of
	// the pair.
	FullSpeed units.MilliVolts
	// HalfSpeed is the safe floor at 1.2 GHz (760 mV on TTT).
	HalfSpeed units.MilliVolts
}

// TradeoffPoint is one step of the Fig. 9 Pareto curve.
type TradeoffPoint struct {
	OperatingPoint
	// Downshifted lists the PMDs running at half speed, weakest first.
	Downshifted []int
	Performance float64
	Power       float64
}

// Label renders like "87.2% power @ 915mV, perf 100.0%".
func (t TradeoffPoint) Label() string {
	return fmt.Sprintf("power %.1f%% @ %v, perf %.1f%%",
		t.Power*100, t.Voltage, t.Performance*100)
}

// ErrNoRequirements rejects empty trade-off inputs.
var ErrNoRequirements = errors.New("energy: no PMD requirements")

// TradeoffCurve generates the Fig. 9 points for a co-scheduled workload:
// starting from all PMDs at full speed with the rail at the maximum
// full-speed requirement, repeatedly downshift the PMD with the highest
// requirement to half speed (costing 1/8 of throughput per core pair) and
// drop the shared rail to the new maximum requirement. The final point has
// every PMD at half speed on the half-speed floor.
//
// The first returned point is always the nominal (980 mV) configuration.
func TradeoffCurve(reqs []PMDRequirement) ([]TradeoffPoint, error) {
	if len(reqs) == 0 || len(reqs) > silicon.NumPMDs {
		return nil, ErrNoRequirements
	}
	for _, r := range reqs {
		if r.PMD < 0 || r.PMD >= silicon.NumPMDs {
			return nil, fmt.Errorf("energy: bad PMD %d", r.PMD)
		}
		if !r.FullSpeed.OnGrid() || !r.HalfSpeed.OnGrid() {
			return nil, fmt.Errorf("energy: off-grid requirement %+v", r)
		}
	}
	// Weakest (highest full-speed requirement) first.
	order := append([]PMDRequirement(nil), reqs...)
	sort.Slice(order, func(a, b int) bool {
		if order[a].FullSpeed != order[b].FullSpeed {
			return order[a].FullSpeed > order[b].FullSpeed
		}
		return order[a].PMD < order[b].PMD
	})

	var out []TradeoffPoint
	appendPoint := func(op OperatingPoint, down []int) {
		out = append(out, TradeoffPoint{
			OperatingPoint: op,
			Downshifted:    append([]int(nil), down...),
			Performance:    op.RelativePerformance(),
			Power:          op.RelativePower(),
		})
	}
	appendPoint(Nominal(), nil)

	var down []int
	for k := 0; k <= len(order); k++ {
		op := Nominal()
		rail := units.MilliVolts(0)
		for i, r := range order {
			if i < k {
				op.Frequencies[r.PMD] = units.HalfFrequency
				if r.HalfSpeed > rail {
					rail = r.HalfSpeed
				}
			} else if r.FullSpeed > rail {
				rail = r.FullSpeed
			}
		}
		op.Voltage = rail
		if k > 0 {
			down = append(down, order[k-1].PMD)
		}
		appendPoint(op, down)
	}
	return out, nil
}

// RequirementsFromVmins folds per-core safe Vmins into per-PMD
// requirements: each PMD needs the max of its two cores' values. Cores
// with no entry (zero) are ignored; a PMD with no active core is omitted.
func RequirementsFromVmins(fullSpeed map[int]units.MilliVolts, halfFloor units.MilliVolts) []PMDRequirement {
	var out []PMDRequirement
	for pmd := 0; pmd < silicon.NumPMDs; pmd++ {
		req := units.MilliVolts(0)
		for _, c := range []int{2 * pmd, 2*pmd + 1} {
			if v, ok := fullSpeed[c]; ok && v > req {
				req = v
			}
		}
		if req > 0 {
			out = append(out, PMDRequirement{PMD: pmd, FullSpeed: req, HalfSpeed: halfFloor})
		}
	}
	return out
}

// GuardbandSummary reports a chip's §3.2 headline numbers.
type GuardbandSummary struct {
	Chip string
	// WorstVmin is the highest safe Vmin over the studied benchmarks on
	// the most robust core: the chip-wide guaranteed undervolt point.
	WorstVmin units.MilliVolts
	// BestVmin is the lowest observed safe Vmin (the most undervoltable
	// benchmark).
	BestVmin units.MilliVolts
	// MinSavings is the energy saving at WorstVmin — the "at least" number
	// the paper quotes (18.4 % TTT/TFF, 15.7 % TSS).
	MinSavings float64
	// MaxSavings is the saving at BestVmin.
	MaxSavings float64
}

// Summarize computes the guardband summary from a set of most-robust-core
// Vmin values.
func Summarize(chip string, vmins []units.MilliVolts) (GuardbandSummary, error) {
	if len(vmins) == 0 {
		return GuardbandSummary{}, errors.New("energy: no Vmin values")
	}
	s := GuardbandSummary{Chip: chip, WorstVmin: vmins[0], BestVmin: vmins[0]}
	for _, v := range vmins[1:] {
		if v > s.WorstVmin {
			s.WorstVmin = v
		}
		if v < s.BestVmin {
			s.BestVmin = v
		}
	}
	s.MinSavings = VoltageSavings(s.WorstVmin)
	s.MaxSavings = VoltageSavings(s.BestVmin)
	return s, nil
}
