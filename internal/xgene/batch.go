// Batch-engine hooks: everything the batch campaign engine needs to
// simulate whole voltage ladders against a board *snapshot* instead of
// one fully locked machine call per grid cell. The contract throughout
// this file is byte-identical replay — a batch-sampled cell consumes the
// campaign RNG stream in exactly the order RunOnCore does (RunOnCore
// samples through SampleCell), so the raw RunRecord logs of the
// sequential and batch engines are interchangeable.

package xgene

import (
	"math/rand"
	"sync"

	"xvolt/internal/edac"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
)

// DRAM-refresh leakage model of SampleCell: relaxing
// the refresh interval beyond the threshold leaks cells into the ECC path
// at slope·(mult−threshold) probability per run.
const (
	// RefreshLeakThreshold is the refresh-interval multiplier above which
	// runs start drawing from the leakage model. At or below it the DRAM
	// contributes nothing — and consumes no RNG — so ladder cells in that
	// state are synthesizable.
	RefreshLeakThreshold = 2.0
	refreshLeakSlope     = 0.15
)

// marginKey identifies one memoized margin assessment. Specs are
// interned package-level values in workload, so pointer identity is a
// stable key.
type marginKey struct {
	core   int
	spec   *workload.Spec
	regime units.MarginRegime
}

// Assess returns the die's margin assessment for running spec on core in
// the given regime, memoized on the machine. Chips are immutable after
// fabrication, so the assessment is a pure function of the key; the cache
// turns the dominant per-run cost (silicon.Chip.Assess walks the full
// per-core calibration) into a map hit.
func (m *Machine) Assess(core int, spec *workload.Spec, regime units.MarginRegime) silicon.Margins {
	key := marginKey{core: core, spec: spec, regime: regime}
	m.marginMu.Lock()
	if mg, ok := m.marginCache[key]; ok {
		m.marginMu.Unlock()
		return mg
	}
	m.marginMu.Unlock()
	mg := m.chip.Assess(core, spec.Profile, spec.Idio(), regime)
	m.marginMu.Lock()
	if m.marginCache == nil {
		m.marginCache = make(map[marginKey]silicon.Margins)
	}
	m.marginCache[key] = mg
	m.marginMu.Unlock()
	return mg
}

// LadderState is the mutable board state a voltage ladder threads between
// cells: the two knobs outside the PMD rail that influence run outcomes.
// The PMD rail itself is the ladder's loop variable and needs no tracking.
type LadderState struct {
	SoC     units.MilliVolts
	Refresh float64
}

// Clean reports whether the state contributes neither effects nor RNG
// draws to a run: SoC rail at or above the die's domain floor and DRAM
// refresh at or below the leakage threshold. Clean state is absorbing —
// a crash reboot lands back inside it (ResetAfterCrash) — which is what
// makes whole clean ladder regions synthesizable.
func (st LadderState) Clean(chip *silicon.Chip) bool {
	return st.SoC >= chip.SoCSafeVmin() && st.Refresh <= RefreshLeakThreshold
}

// ResetAfterCrash applies the watchdog power-cycle to the tracked state:
// the reboot returns both knobs to nominal (powerOnLocked), and the
// harness's re-programming afterwards touches only the PMD rail and
// clocks.
func (st *LadderState) ResetAfterCrash() {
	st.SoC = units.NominalSoC
	st.Refresh = 1.0
}

// BatchState is a read-only snapshot of everything that determines run
// outcomes on a board, taken under the machine lock. A batch engine takes
// one snapshot per campaign and samples the whole ladder from it without
// touching the board again.
type BatchState struct {
	Chip  *silicon.Chip
	Model silicon.Model
	Prot  silicon.Protection
	State LadderState
}

// BatchState snapshots the machine for ladder execution.
func (m *Machine) BatchState() BatchState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return BatchState{
		Chip:  m.chip,
		Model: m.model,
		Prot:  m.protection,
		State: LadderState{SoC: m.socVoltage, Refresh: m.dramRefresh},
	}
}

// CellResult is one batch-sampled grid cell: the silicon-level effects
// plus the EDAC delta the hardware would have logged for the run.
type CellResult struct {
	Effects silicon.RunEffects
	Delta   edac.Counts
}

// SampleCell draws one run's fate: the one definition of a run's
// draws, which RunOnCore makes against a snapshot of the live board and
// the batch engine against a campaign's snapshot. st carries the
// ladder's mutable rail state; after a cell with Effects.SC the caller
// must apply st.ResetAfterCrash() (the watchdog reboot) before sampling
// the next cell.
//
//xvolt:hotpath per-cell sampling kernel; one call per (benchmark, core, voltage, run)
func SampleCell(rng *rand.Rand, bs BatchState, st LadderState, margins silicon.Margins, v units.MilliVolts) CellResult {
	effects := silicon.SampleRunProtected(rng, margins, v, bs.Model, bs.Prot)
	// The PCP/SoC domain contributes independently: an undervolted uncore
	// can take the system down regardless of the PMD rail.
	if soc := bs.Chip.SampleSoC(rng, st.SoC); !soc.Clean() {
		effects.SC = effects.SC || soc.SC
		if soc.CE {
			effects.CE = true
			effects.CECount += soc.CECount
		}
	}
	// Over-relaxed DRAM refresh leaks cells into the ECC path.
	if st.Refresh > RefreshLeakThreshold {
		p := (st.Refresh - RefreshLeakThreshold) * refreshLeakSlope
		if rng.Float64() < p {
			effects.CE = true
			effects.CECount += 1 + rng.Intn(5)
		}
	}
	out := CellResult{Effects: effects}
	if effects.CE {
		out.Delta.CE[sampleLoc(rng)] += uint64(effects.CECount)
	}
	if effects.UE {
		out.Delta.UE[sampleLoc(rng)] += uint64(effects.UECount)
	}
	return out
}

// Recycle reboots the board to a fresh nominal state while preserving its
// fabrication-time configuration (protection, per-PMD rails, DRAM
// refresh) — the same knobs Clone carries to a new board, without the
// allocations. The margin cache survives: it depends only on the
// immutable die.
func (m *Machine) Recycle() {
	m.mu.Lock()
	defer m.mu.Unlock()
	refresh := m.dramRefresh
	m.powerOnLocked()
	m.dramRefresh = refresh
}

// Pool recycles booted boards across campaign executions. Workers Get a
// board, run any number of campaigns on it, and Put it back; a Get
// prefers recycling an idle board (Recycle) over fabricating a new one
// (the factory). The engine's determinism domain — factories producing
// boards whose LadderState is Clean — is exactly the domain on which a
// recycled board is indistinguishable from a fresh factory board.
type Pool struct {
	factory func() *Machine
	pool    sync.Pool
}

// NewPool builds a board pool over a machine factory.
func NewPool(factory func() *Machine) *Pool {
	return &Pool{factory: factory}
}

// Get returns a booted board: a recycled one when available, a fresh
// fabrication otherwise.
func (p *Pool) Get() *Machine {
	if m, _ := p.pool.Get().(*Machine); m != nil {
		m.Recycle()
		return m
	}
	return p.factory()
}

// Put returns a board to the pool.
func (p *Pool) Put(m *Machine) {
	if m != nil {
		p.pool.Put(m)
	}
}
