// Package silicon models the electrical behavior of X-Gene 2 dies under
// reduced supply voltage: process corners, core-to-core variation, and the
// failure physics that turn a voltage deficit into observable effects
// (silent data corruptions, ECC events, application and system crashes).
//
// The model is calibrated against every quantitative anchor in the MICRO-50
// paper (§3): most-robust-core Vmin spans per corner at 2.4 GHz, the 35 mV
// core-to-core spread with PMD2 strongest and PMD0 weakest, the flat 760 mV
// Vmin at 1.2 GHz, and — crucially — the X-Gene failure *ordering*, where
// timing-path SDCs appear at higher voltages than corrected errors alone,
// the opposite of the Itanium studies the paper contrasts against.
//
// Chips are constructed deterministically from (corner, seed); per-run
// variability is injected by the caller's RNG when sampling runs.
package silicon

import (
	"fmt"
	"math"
	"math/rand"

	"xvolt/internal/randsrc"
	"xvolt/internal/units"
)

// NumCores is the core count of an X-Gene 2 die.
const NumCores = 8

// NumPMDs is the number of processor modules (core pairs).
const NumPMDs = 4

// Corner identifies the process corner of a die (paper §3).
type Corner int

const (
	// TTT is the nominal ("typical") part.
	TTT Corner = iota
	// TFF is the fast corner: high leakage, capable of higher frequency.
	TFF
	// TSS is the slow corner: low leakage, larger margins needed.
	TSS
)

// String names the corner as in the paper.
func (c Corner) String() string {
	switch c {
	case TTT:
		return "TTT"
	case TFF:
		return "TFF"
	case TSS:
		return "TSS"
	default:
		return fmt.Sprintf("Corner(%d)", int(c))
	}
}

// ParseCorner converts a corner name to a Corner.
func ParseCorner(s string) (Corner, error) {
	switch s {
	case "TTT":
		return TTT, nil
	case "TFF":
		return TFF, nil
	case "TSS":
		return TSS, nil
	}
	return 0, fmt.Errorf("silicon: unknown corner %q", s)
}

// PMDOf returns the processor-module index of a core (two cores per PMD).
func PMDOf(core int) int { return core / 2 }

// StressProfile quantifies how strongly a workload exercises the structures
// whose margins matter under undervolting. All fields are in [0, 1].
//
// Pipeline and FPU stress excite the long timing paths that produce SDCs on
// the X-Gene 2; Memory stress exercises the SRAM arrays (parity/ECC
// protected) whose cells fail only at much lower voltages; Branch and ILP
// capture front-end and issue pressure, which contribute secondarily.
type StressProfile struct {
	Pipeline float64 // integer-pipeline / ALU timing-path pressure
	FPU      float64 // floating-point datapath pressure
	Memory   float64 // cache/DRAM array activity
	Branch   float64 // control-flow pressure
	ILP      float64 // issue-width utilization
}

// clamp01 bounds x into [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// clampNonNeg bounds x into [0, ∞).
func clampNonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// Visible is the portion of a workload's critical-path stress that is
// observable through performance counters; it is a linear function of the
// same microarchitectural quantities that the PMU events expose, so a
// linear regression over counters can in principle recover it (§4.2). The
// 0.55 baseline reflects that long timing paths toggle even in low-IPC
// code; memory-bound programs (mcf-like) relieve pipeline pressure and
// *lower* the stress. The full stress score used by the failure model adds
// a per-workload idiosyncrasy on top of this, which is what bounds the
// achievable accuracy of Vmin prediction (§4.3.1).
func (p StressProfile) Visible() float64 {
	v := 0.55 + 0.28*p.Pipeline + 0.12*p.FPU + 0.05*p.ILP + 0.05*p.Branch - 0.10*p.Memory
	return clampNonNeg(v)
}

// cornerSpec carries the per-corner calibration constants. Voltages in mV.
type cornerSpec struct {
	logicBase float64 // logic Vmin at zero stress (most robust core)
	logicSpan float64 // additional logic Vmin at full stress
	sramBase  float64 // SRAM array safe floor (most robust core)
	vminHalf  units.MilliVolts
	// coreOffset raises a core's logic Vmin above the most robust core.
	coreOffset [NumCores]float64
	jitterMV   float64 // seeded per-core static jitter amplitude
}

// Calibration (DESIGN.md §5). Most-robust-core logic Vmin at 2.4 GHz is
// logicBase + score·logicSpan snapped to the 5 mV grid, spanning:
//
//	TTT 860–885 mV, TFF 870–885 mV, TSS 870–900 mV
//
// over the SPEC stress-score range [0.737, 1.0]. PMD0 (cores 0, 1) is the
// most sensitive, PMD2 (cores 4, 5) the most robust, on all corners.
var cornerSpecs = map[Corner]cornerSpec{
	TTT: {
		logicBase:  790,
		logicSpan:  95,
		sramBase:   800,
		vminHalf:   760,
		coreOffset: [NumCores]float64{30, 35, 20, 15, 0, 5, 10, 10},
		jitterMV:   1.5,
	},
	TFF: {
		logicBase:  815,
		logicSpan:  70,
		sramBase:   810,
		vminHalf:   755,
		coreOffset: [NumCores]float64{22, 24, 10, 8, 0, 2, 8, 8},
		jitterMV:   1.5,
	},
	TSS: {
		logicBase:  786,
		logicSpan:  114,
		sramBase:   805,
		vminHalf:   775,
		coreOffset: [NumCores]float64{30, 30, 15, 15, 0, 5, 10, 10},
		jitterMV:   1.5,
	},
}

// Leakage returns the corner's relative static-power factor (TFF leaks the
// most, TSS the least) — used by the energy model's optional static term.
func (c Corner) Leakage() float64 {
	switch c {
	case TFF:
		return 1.35
	case TSS:
		return 0.70
	default:
		return 1.0
	}
}

// Chip is one simulated X-Gene 2 die.
type Chip struct {
	// Name labels the part, e.g. "TTT".
	Name   string
	corner Corner
	seed   int64
	spec   cornerSpec
	// jitter is the frozen per-core static-variation component.
	jitter [NumCores]float64
}

// NewChip fabricates a die at the given corner. The seed freezes the die's
// static process variation; the three parts studied in the paper are
// NewChip(TTT, 1), NewChip(TFF, 2), NewChip(TSS, 3) (see PaperChip).
func NewChip(corner Corner, seed int64) *Chip {
	spec, ok := cornerSpecs[corner]
	if !ok {
		panic(fmt.Sprintf("silicon: no spec for corner %v", corner))
	}
	c := &Chip{Name: corner.String(), corner: corner, seed: seed, spec: spec}
	rng := randsrc.New(seed)
	for i := range c.jitter {
		c.jitter[i] = (rng.Float64()*2 - 1) * spec.jitterMV
	}
	return c
}

// PaperChip fabricates the paper's part at corner: the die with
// fabrication seed 1, 2 or 3 for TTT, TFF or TSS.
func PaperChip(corner Corner) *Chip { return NewChip(corner, int64(corner)+1) }

// PaperChips fabricates the three parts characterized in the paper.
func PaperChips() []*Chip {
	return []*Chip{PaperChip(TTT), PaperChip(TFF), PaperChip(TSS)}
}

// Corner returns the chip's process corner.
func (c *Chip) Corner() Corner { return c.corner }

// Seed returns the fabrication seed.
func (c *Chip) Seed() int64 { return c.seed }

// checkCore panics on an out-of-range core index (programming error).
func checkCore(core int) {
	if core < 0 || core >= NumCores {
		panic(fmt.Sprintf("silicon: core %d out of range", core))
	}
}

// logicVmin returns the un-snapped logic safe voltage in mV for a stress
// score on a core at full speed.
func (c *Chip) logicVmin(core int, score float64) float64 {
	checkCore(core)
	return c.spec.logicBase + score*c.spec.logicSpan +
		c.spec.coreOffset[core] + c.jitter[core]
}

// sramVmin returns the un-snapped SRAM-array safe floor in mV on a core at
// full speed. Array margins track core variation weakly (half the offset).
func (c *Chip) sramVmin(core int) float64 {
	checkCore(core)
	return c.spec.sramBase + c.spec.coreOffset[core]/2 + c.jitter[core]/2
}

// Margins is the frozen electrical assessment of (chip, core, workload,
// frequency-regime): the thresholds from which run outcomes are sampled.
type Margins struct {
	// SafeVmin is the lowest grid voltage with fully clean operation.
	SafeVmin units.MilliVolts
	// CrashVmax is the highest grid voltage at which system crashes become
	// possible; the unsafe region is (CrashVmax, SafeVmin) exclusive on the
	// safe side. At the half-speed regime CrashVmax == SafeVmin − 5 mV
	// (no unsafe region, paper §3.2).
	CrashVmax units.MilliVolts
	// LogicVmin / SRAMVmin are the underlying un-snapped thresholds.
	LogicVmin float64
	SRAMVmin  float64
	// PipeShare / MemShare weight how run effects are drawn.
	PipeShare float64
	MemShare  float64
}

// score combines the counter-visible stress with the workload idiosyncrasy.
// Callers pass the idiosyncrasy explicitly (internal/workload owns it).
func score(p StressProfile, idio float64) float64 {
	s := p.Visible() + idio
	if s < 0 {
		return 0
	}
	return s
}

// Assess computes the margins for a workload (profile + idiosyncrasy) on a
// core in a frequency regime.
//
// In the full-speed regime the safe Vmin is the larger of the logic and
// SRAM thresholds; the unsafe-region width grows with pipeline stress
// (bwaves-like programs expose a wide, smoothly-degrading band, paper
// Fig. 5). In the half-speed regime timing margins relax so far that the
// region collapses: one step below the safe floor the system crashes.
func (c *Chip) Assess(core int, p StressProfile, idio float64, regime units.MarginRegime) Margins {
	checkCore(core)
	if regime == units.RegimeHalf {
		// Timing margins relax so far at the divided clock that the unsafe
		// region vanishes: one step below the floor the system crashes
		// outright (§3.2: "we observe only system crashes below the safe
		// Vmin" at 1.2 GHz). The effective thresholds sit well above the
		// floor so the sampler's crash term saturates immediately.
		vs := c.spec.vminHalf
		return Margins{
			SafeVmin:  vs,
			CrashVmax: vs - units.VoltageStep,
			LogicVmin: float64(vs) + 30,
			SRAMVmin:  float64(vs) + 20,
			PipeShare: pipeShare(p),
			MemShare:  memShare(p),
		}
	}
	lv := c.logicVmin(core, score(p, idio))
	sv := c.sramVmin(core)
	safe := math.Max(lv, sv)
	// Snap up: SafeVmin must not sit below the physical threshold, or the
	// "safe" grid point could still misbehave.
	safeSnapped := units.MilliVolts(math.Ceil(safe)).SnapUp()
	width := unsafeWidth(p)
	crash := safeSnapped - units.MilliVolts(math.Round(width/5)*5)
	if crash >= safeSnapped {
		crash = safeSnapped - units.VoltageStep
	}
	return Margins{
		SafeVmin:  safeSnapped,
		CrashVmax: crash,
		LogicVmin: lv,
		SRAMVmin:  sv,
		PipeShare: pipeShare(p),
		MemShare:  memShare(p),
	}
}

// unsafeWidth sets the scale on which a workload degrades below its safe
// Vmin: the first system crashes appear about one width down, and the
// systematic-crash plateau about 2.5 widths down. High-pipeline/FPU
// programs (bwaves) degrade over the longest bands.
func unsafeWidth(p StressProfile) float64 {
	return 12 + 12*clamp01(0.6*p.Pipeline+0.4*p.FPU)
}

// pipeShare is the probability weight of timing-path (SDC/AC) effects.
func pipeShare(p StressProfile) float64 {
	return 0.30 + 0.70*clamp01(0.7*p.Pipeline+0.3*p.FPU)
}

// memShare is the probability weight of array (CE/UE) effects.
func memShare(p StressProfile) float64 {
	return 0.20 + 0.80*p.Memory
}

// RunEffects records what one characterization run experienced, in the
// taxonomy of the paper's Table 3. Multiple effects can co-occur in one run.
type RunEffects struct {
	SDC bool // output mismatch without hardware notification
	CE  bool // corrected error(s) reported by EDAC
	UE  bool // uncorrected-but-detected error(s) reported by EDAC
	AC  bool // application crash (non-zero exit)
	SC  bool // system crash (machine unresponsive)
	// CECount / UECount are the EDAC event tallies behind CE/UE.
	CECount int
	UECount int
	// SDCBits is how many result bits the injector flipped (0 if !SDC).
	SDCBits int
}

// Model selects the failure physics used when sampling runs.
type Model int

const (
	// XGene is the behavior measured in the paper: timing-path failures
	// dominate, so SDCs (alone or with ECC events) appear at higher
	// voltages than corrected errors alone.
	XGene Model = iota
	// Itanium reproduces the ECC-first behavior of refs [9, 10]: a wide
	// band of corrected errors precedes any SDC or crash, so ECC traffic
	// can serve as an undervolting proxy.
	Itanium
)

// String names the model.
func (m Model) String() string {
	if m == Itanium {
		return "itanium"
	}
	return "xgene"
}

// SampleRun draws the effects of one run of a workload with margins m at
// supply voltage v, using rng for the run-to-run non-determinism that makes
// repeated campaigns necessary (paper §2.2.1 “Massive Iterative Execution”).
func SampleRun(rng *rand.Rand, m Margins, v units.MilliVolts, model Model) RunEffects {
	var e RunEffects
	// At or above the safe Vmin the design guardband absorbs all dynamic
	// noise by construction: the run is clean.
	if v >= m.SafeVmin {
		return e
	}
	// Below it, per-run electrical noise (voltage droops excited by the
	// instruction stream) moves the instantaneous margin around, which is
	// what makes repeated campaigns diverge (paper §2.2.1).
	noise := rng.NormFloat64() * 1.5
	dLogic := clampNonNeg((m.LogicVmin - noise - float64(v)) / math.Max(1, float64(m.SafeVmin-m.CrashVmax)))
	dSRAM := clampNonNeg((m.SRAMVmin - noise - float64(v)) / 15.0)

	var pSDC, pCE, pUE, pAC, pSCLogic, pSCSRAM float64
	switch model {
	case Itanium:
		// ECC-first: corrected errors flood in immediately below Vmin and
		// keep the machine correct over a wide band.
		pCE = clamp01(2.5 * dLogic)
		pUE = 0.6 * clamp01(1.2*(dLogic-0.75))
		pSDC = 0.4 * clamp01(dLogic-0.9)
		pAC = 0.5 * clamp01(dLogic-0.95)
		pSCLogic = clamp01(2 * (dLogic - 1.1))
		pSCSRAM = clamp01(1.5 * (dSRAM - 1))
	default:
		// X-Gene: SDCs from timing paths open the unsafe region, and the
		// whole progression to systematic crash unfolds smoothly over
		// roughly 2.5 widths (Fig. 5's gradual severity increase).
		pSDC = m.PipeShare * clamp01(0.8*dLogic)
		pCE = m.MemShare * (clamp01(0.6*(dLogic-0.25)) + clamp01(1.2*dSRAM))
		pUE = m.MemShare * (0.5*clamp01(0.5*(dLogic-0.5)) + 0.8*clamp01(dSRAM-0.5))
		pAC = m.PipeShare * clamp01(0.5*(dLogic-0.5))
		pSCLogic = clamp01(0.7 * (dLogic - 1))
		pSCSRAM = clamp01(1.5 * (dSRAM - 1))
	}
	pSC := 1 - (1-pSCLogic)*(1-pSCSRAM)

	if rng.Float64() < pSC {
		e.SC = true
		// A crashing run frequently logs ECC noise on the way down.
		if rng.Float64() < 0.5*clamp01(pCE+0.2) {
			e.CE = true
			e.CECount = 1 + rng.Intn(20)
		}
		return e
	}
	if rng.Float64() < pSDC {
		e.SDC = true
		e.SDCBits = 1 + rng.Intn(3)
	}
	if rng.Float64() < clamp01(pCE) {
		e.CE = true
		e.CECount = 1 + rng.Intn(50)
	}
	if rng.Float64() < clamp01(pUE) {
		e.UE = true
		e.UECount = 1 + rng.Intn(4)
	}
	if rng.Float64() < clamp01(pAC) {
		e.AC = true
	}
	return e
}
