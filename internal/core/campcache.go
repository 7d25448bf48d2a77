// Campaign memoization for the batch engine: a completed (benchmark,
// core) ladder is a pure function of its identity — the campaign seed
// inputs, the sweep parameters, and the board snapshot it was sampled
// against — so re-characterizing an unchanged cell can reuse the stored
// sweep instead of sampling it again. This is the "characterize once"
// half of the batch engine: fleets and guardband studies re-sweep the
// same grid continuously, and a warm cell costs a map hit. The memo
// keeps the sweep itself (step tallies, and run cells only where a step
// had effects), shared read-only with every hit; Characterize reads its
// tallies and the record paths rebuild records from it.
//
// Determinism: a hit returns exactly what recomputation would produce
// (sweeps are plain values keyed by every input that influences them),
// so cold and warm executions are byte-identical — pinned by the
// equivalence tests, which run every engine twice.

package core

import (
	"sync"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// memoKey is the full identity of one ladder sweep. Spec identity is
// captured by value (name, input, size, profile, score) rather than by
// pointer so repeated suite constructions hit the same entries; the die
// is captured by its fabrication coordinates (corner, seed), which fully
// determine per-core margins.
type memoKey struct {
	seed    int64
	corner  silicon.Corner
	fabSeed int64
	bench   string
	input   string
	size    int
	profile silicon.StressProfile
	score   float64
	core    int

	freq      units.MegaHertz
	start     units.MilliVolts
	stop      units.MilliVolts
	runs      int
	stopAfter int

	model   silicon.Model
	prot    silicon.Protection
	soc     units.MilliVolts
	refresh float64
}

func newMemoKey(bs xgene.BatchState, spec *workload.Spec, coreID int, cfg *Config) memoKey {
	return memoKey{
		seed:      cfg.Seed,
		corner:    bs.Chip.Corner(),
		fabSeed:   bs.Chip.Seed(),
		bench:     spec.Name,
		input:     spec.Input,
		size:      spec.Size,
		profile:   spec.Profile,
		score:     spec.Score,
		core:      coreID,
		freq:      cfg.Frequency,
		start:     cfg.StartVoltage,
		stop:      cfg.StopVoltage,
		runs:      cfg.Runs,
		stopAfter: cfg.StopAfterCrashSteps,
		model:     bs.Model,
		prot:      bs.Prot,
		soc:       bs.State.SoC,
		refresh:   bs.State.Refresh,
	}
}

// campaignCacheMaxRecords bounds the cache by the runs its sweeps hold,
// one record each once rebuilt. A run costs at most 78 bytes (a 72-byte
// cell plus its share of a 56-byte step tally at 10 runs a step), so a
// full cache is under 21 MB; runs of clean steps, most of a report's,
// cost 6 bytes. When an insert would exceed the cap the cache is
// flushed whole — an epoch reset, chosen over per-entry eviction so
// behavior never depends on map iteration order.
const campaignCacheMaxRecords = 1 << 18

var campCache = struct {
	mu      sync.Mutex
	entries map[memoKey]*sweep
	runs    int
}{entries: map[memoKey]*sweep{}}

// lookupCampaign returns the stored sweep for a key, if any. The
// returned sweep is shared and must be treated as read-only.
func lookupCampaign(k memoKey) (*sweep, bool) {
	campCache.mu.Lock()
	s, ok := campCache.entries[k]
	campCache.mu.Unlock()
	return s, ok
}

// storeCampaign inserts a completed sweep. s must not be mutated after
// the call.
func storeCampaign(k memoKey, s *sweep) {
	runs := s.runs()
	campCache.mu.Lock()
	if campCache.runs+runs > campaignCacheMaxRecords {
		campCache.entries = map[memoKey]*sweep{}
		campCache.runs = 0
	}
	if _, dup := campCache.entries[k]; !dup {
		campCache.entries[k] = s
		campCache.runs += runs
	}
	campCache.mu.Unlock()
}

// FlushCampaignCache empties the batch engine's campaign memo — for tests
// and long-lived processes that want the memory back.
func FlushCampaignCache() {
	campCache.mu.Lock()
	campCache.entries = map[memoKey]*sweep{}
	campCache.runs = 0
	campCache.mu.Unlock()
}
