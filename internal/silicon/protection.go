// Design-enhancement models (paper §6). The paper closes with three
// hardware recommendations for voltage-scaled operation; this file models
// the first two so the repository can quantify them as ablations:
//
//   - stronger error protection (SECDED → DECTED, more blocks covered):
//     transforms a large fraction of would-be SDC/UE behavior into
//     corrected errors, recreating the Itanium-like ECC proxy band;
//   - adaptive clocking (ref [38], §4.4 footnote): circuit-level reaction
//     to droops that lowers the voltage at which timing-path SDCs occur,
//     at a small throughput cost while deployed.
//
// The third recommendation — finer-grained voltage domains — is an
// ablation in internal/experiments (DesignEnhancements), computed from
// per-PMD Vmins.
package silicon

import (
	"math/rand"

	"xvolt/internal/units"
)

// ECCLevel selects the memory-protection strength.
type ECCLevel int

const (
	// SECDED is the stock X-Gene 2 protection: single-error-correct,
	// double-error-detect on L2/L3 (Table 2).
	SECDED ECCLevel = iota
	// DECTED is the §6 "stronger ECC codes" enhancement:
	// double-error-correct, triple-error-detect, applied to more blocks.
	DECTED
)

// String names the level.
func (e ECCLevel) String() string {
	if e == DECTED {
		return "DECTED"
	}
	return "SECDED"
}

// Protection bundles the §6 enhancement knobs.
type Protection struct {
	ECC ECCLevel
	// AdaptiveClocking enables the droop-reactive clock of ref [38]:
	// timing-path margins gain AdaptiveMarginMV, but the clock stretching
	// costs AdaptiveSlowdown of throughput while engaged.
	AdaptiveClocking bool
}

// Electrical effect sizes of the enhancements.
const (
	// AdaptiveMarginMV is the extra timing margin adaptive clocking buys
	// (the voltage at which SDCs occur drops by this much).
	AdaptiveMarginMV = 15
	// AdaptiveSlowdown is the average throughput cost of the stretched
	// clock cycles while adaptation is engaged.
	AdaptiveSlowdown = 0.03
	// dectedSDCToCE is the probability a DECTED-protected structure turns
	// a would-be silent corruption into a corrected error ("significant
	// probability to be transformed to corrected errors", §6).
	dectedSDCToCE = 0.7
	// dectedUEToCE is the probability a would-be uncorrected error is now
	// correctable.
	dectedUEToCE = 0.8
)

// Stock returns the unmodified X-Gene 2 configuration.
func Stock() Protection { return Protection{ECC: SECDED} }

// EffectiveSafeVmin returns the voltage at or above which
// SampleRunProtected is guaranteed to return clean effects without
// consuming a single RNG draw, for the given enhancement configuration.
// It mirrors the margin adjustment SampleRunProtected applies before the
// SafeVmin early-out in SampleRun — the contract the batch engine's
// clean-region synthesis rests on (a synthesized cell and a sampled cell
// are indistinguishable because neither touches the stream).
func EffectiveSafeVmin(m Margins, p Protection) units.MilliVolts {
	if p.AdaptiveClocking {
		if adj := m.SafeVmin - AdaptiveMarginMV; adj > m.CrashVmax {
			return adj.SnapUp()
		}
	}
	return m.SafeVmin
}

// SampleRunProtected draws one run's effects under the given enhancement
// configuration. With the stock configuration it is exactly SampleRun.
func SampleRunProtected(rng *rand.Rand, m Margins, v units.MilliVolts, model Model, p Protection) RunEffects {
	if p.AdaptiveClocking {
		// The adaptive clock reacts to droops, recovering timing margin:
		// evaluate the logic thresholds as if the rail sat higher.
		m.LogicVmin -= AdaptiveMarginMV
		if adj := m.SafeVmin - AdaptiveMarginMV; adj > m.CrashVmax {
			m.SafeVmin = adj.SnapUp()
		}
	}
	e := SampleRun(rng, m, v, model)
	if p.ECC == DECTED {
		if e.SDC && rng.Float64() < dectedSDCToCE {
			e.SDC = false
			e.SDCBits = 0
			e.CE = true
			e.CECount += 1 + rng.Intn(8)
		}
		if e.UE && rng.Float64() < dectedUEToCE {
			e.UE = false
			e.UECount = 0
			e.CE = true
			e.CECount += 1 + rng.Intn(4)
		}
	}
	return e
}
