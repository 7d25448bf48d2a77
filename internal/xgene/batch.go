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

	"xvolt/internal/edac"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
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

// BatchState is a read-only snapshot of everything that determines run
// outcomes on a board, taken under the machine lock. The batch engine
// takes one snapshot per Execute and samples every run from it without
// touching the board again; a fleet board, which never has a machine,
// takes NewBatchState of its fabricated die.
type BatchState struct {
	Chip  *silicon.Chip
	Model silicon.Model
	Prot  silicon.Protection
}

// NewBatchState is the snapshot of the board New(chip) boots (the X-Gene
// failure model, no protection enhancement), without the machine.
func NewBatchState(chip *silicon.Chip) BatchState {
	return BatchState{Chip: chip, Model: silicon.XGene}
}

// BatchState snapshots the machine for ladder execution.
func (m *Machine) BatchState() BatchState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batchStateLocked()
}

// batchStateLocked is BatchState under the held machine lock.
func (m *Machine) batchStateLocked() BatchState {
	return BatchState{Chip: m.chip, Model: m.model, Prot: m.protection}
}

// CellResult is one batch-sampled grid cell: the silicon-level effects
// plus the EDAC delta the hardware would have logged for the run.
type CellResult struct {
	Effects silicon.RunEffects
	Delta   edac.Counts
}

// SampleCell draws one run's fate: the one definition of a run's
// draws, which RunOnCore makes against a snapshot of the live board, and
// the batch engine and the fleet poller against their own snapshots.
// The SoC rail and DRAM refresh sit at nominal on every board, where
// they contribute neither effects nor draws.
//
//xvolt:hotpath per-cell sampling kernel; one call per (benchmark, core, voltage, run)
func SampleCell(rng *rand.Rand, bs BatchState, margins silicon.Margins, v units.MilliVolts) CellResult {
	effects := silicon.SampleRunProtected(rng, margins, v, bs.Model, bs.Prot)
	out := CellResult{Effects: effects}
	if effects.CE {
		out.Delta.CE[sampleLoc(rng)] += uint64(effects.CECount)
	}
	if effects.UE {
		out.Delta.UE[sampleLoc(rng)] += uint64(effects.UECount)
	}
	return out
}
