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
// outcomes on a board, taken under the machine lock. A batch engine takes
// one snapshot per campaign and samples the whole ladder from it without
// touching the board again.
type BatchState struct {
	Chip  *silicon.Chip
	Model silicon.Model
	Prot  silicon.Protection
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
// draws, which RunOnCore makes against a snapshot of the live board and
// the batch engine against a campaign's snapshot. The SoC rail and DRAM
// refresh sit at nominal on every board, where they contribute neither
// effects nor draws.
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

// Pool recycles booted boards across campaign executions. Workers Get a
// board, run any number of campaigns on it, and Put it back; a Get
// prefers resetting an idle board (Reset) over fabricating a new one
// (the factory). A reset board is indistinguishable from a fresh factory
// board: both boot at nominal settings with the fabricated protection,
// and the margin cache survives because it depends only on the die.
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
		m.Reset()
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
