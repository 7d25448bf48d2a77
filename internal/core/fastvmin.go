package core

import (
	"errors"
	"fmt"
	"math/rand"

	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// FastVminResult is the outcome of a bisection Vmin search.
type FastVminResult struct {
	// SafeVmin is the lowest grid voltage confirmed clean.
	SafeVmin units.MilliVolts
	// RunsUsed counts the characterization runs spent — the economy over
	// a full downward sweep is the point of this mode.
	RunsUsed int
	// Crashes counts the runs that hung the system: each cost the board
	// one watchdog power cycle, and so one boot.
	Crashes int
}

// FindVminFast locates a (benchmark, core) safe Vmin by bisection instead
// of a full downward sweep: each probe point executes `confirm` runs and
// counts as clean only if every run is (the paper's full protocol repeats
// entire sweeps ten times; bisection with a confirmation count is the
// standard way real campaigns cut the multi-month cost when only the Vmin
// — not the unsafe-region structure — is needed).
//
// The framework probes the live machine through its watchdog; it is the
// oracle of the bisections on the die (FindVminOnDie).
//
//xvolt:lint-ignore unusedexport the die bisection's oracle; frozen perfbench's bring-up probe calls it
func (f *Framework) FindVminFast(spec *workload.Spec, coreID int, cfg Config, confirm int) (FastVminResult, error) {
	if err := checkBisection(&cfg, coreID, confirm); err != nil {
		return FastVminResult{}, err
	}
	f.rng = campaignRand(f.machine.Chip().Name, spec, coreID, &cfg)
	f.ensureAlive()
	f.machine.StabilizeTemperature(cfg.TargetTemperature)
	return bisectVmin(f.log, spec, coreID, &cfg, confirm, func(v units.MilliVolts, run int) (Observation, error) {
		rec, err := f.oneRun(spec, coreID, &cfg, v, run)
		return rec.Classify(), err
	})
}

// FindVminOnDie is FindVminFast on a die snapshot: each run is a cell
// the sweeps' cell rule samples from bs at the margins, which must be
// bs's assessment of (coreID, spec) in units.RegimeOf(cfg.Frequency).
// It makes the draws FindVminFast makes on a fresh board of the same
// die, so it finds the same floor in the same runs, and that board boots
// once more for each crash it counts.
func FindVminOnDie(bs xgene.BatchState, margins silicon.Margins, spec *workload.Spec, coreID int, cfg Config, confirm int) (FastVminResult, error) {
	if err := checkBisection(&cfg, coreID, confirm); err != nil {
		return FastVminResult{}, err
	}
	return bisectOnDie(campaignRand(bs.Chip.Name, spec, coreID, &cfg), bs, margins, spec, coreID, &cfg, confirm, nil, nil)
}

// FindVminFast is FindVminOnDie on the runner's board, at its margins.
// Each crash counts one watchdog recovery, numbered across the runner's
// study, and the attached log gets Framework.FindVminFast's events.
func (r *LadderRunner) FindVminFast(spec *workload.Spec, coreID int, cfg Config, confirm int) (FastVminResult, error) {
	if err := checkBisection(&cfg, coreID, confirm); err != nil {
		return FastVminResult{}, err
	}
	if r.board == nil {
		return FastVminResult{}, errNoBoard
	}
	bs := r.board.BatchState()
	margins := r.board.Assess(coreID, spec, units.RegimeOf(cfg.Frequency))
	return bisectOnDie(campaignRand(bs.Chip.Name, spec, coreID, &cfg), bs, margins, spec, coreID, &cfg, confirm, r.log,
		func(v units.MilliVolts, run int, c runCell) {
			if c.crashed {
				r.mu.Lock()
				r.recoveries++
				n := r.recoveries
				r.mu.Unlock()
				r.log.Emit(trace.SystemCrash, "%s core %d at %v: system hang", spec.ID(), coreID, v)
				r.log.Emit(trace.Recovery, "watchdog power-cycled the board (recovery #%d)", n)
			}
			r.log.Emit(trace.RunDone, "%s core %d %v run %d -> %s", spec.ID(), coreID, v, run, c.observation())
		})
}

// checkBisection validates a bisection's configuration, core and
// confirmation count.
func checkBisection(cfg *Config, coreID, confirm int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if coreID < 0 || coreID >= silicon.NumCores {
		return fmt.Errorf("core: core %d out of range", coreID)
	}
	if confirm < 1 {
		return errors.New("core: confirm must be >= 1")
	}
	return nil
}

// bisectOnDie is the die bisection over rng, the campaign's stream. each,
// if not nil, sees every run; log gets the search's notes.
func bisectOnDie(rng *rand.Rand, bs xgene.BatchState, margins silicon.Margins, spec *workload.Spec, coreID int, cfg *Config, confirm int,
	log *trace.Log, each func(v units.MilliVolts, run int, c runCell)) (FastVminResult, error) {
	var rule cellRule
	rule.replay.Begin(spec)
	golden := spec.Golden()
	return bisectVmin(log, spec, coreID, cfg, confirm, func(v units.MilliVolts, run int) (Observation, error) {
		c := rule.sample(rng, bs, margins, v, golden)
		if each != nil {
			each(v, run, c)
		}
		return c.observation(), nil
	})
}

// bisectVmin is the one bisection search: run performs a probe's run-th
// run at v and classifies it. The search keeps lo ≤ Vmin ≤ hi with hi
// clean and lo dirty (lo starts one step under StopVoltage as a virtual
// floor). The result is exact with respect to the confirmation policy:
// the returned voltage ran `confirm` clean runs, and the next step down
// did not. A log gets the search's bounds and result.
func bisectVmin(log *trace.Log, spec *workload.Spec, coreID int, cfg *Config, confirm int, run func(v units.MilliVolts, run int) (Observation, error)) (FastVminResult, error) {
	if log != nil {
		log.Emit(trace.Note, "fast-vmin %s core %d: bisecting [%v, %v]",
			spec.ID(), coreID, cfg.StopVoltage, cfg.StartVoltage)
	}
	res := FastVminResult{}
	// clean probes one voltage with `confirm` runs.
	clean := func(v units.MilliVolts) (bool, error) {
		for i := 0; i < confirm; i++ {
			o, err := run(v, i)
			if err != nil {
				return false, err
			}
			res.RunsUsed++
			if o.SC {
				res.Crashes++
			}
			if !o.Clean() {
				return false, nil
			}
		}
		return true, nil
	}

	hi := cfg.StartVoltage
	lo := cfg.StopVoltage - units.VoltageStep // virtual dirty floor
	ok, err := clean(hi)
	if err != nil {
		return res, err
	}
	if !ok {
		return res, fmt.Errorf("core: %s misbehaves on core %d even at %v", spec.ID(), coreID, hi)
	}
	for hi-lo > units.VoltageStep {
		mid := (lo + (hi-lo)/2).SnapDown()
		if mid <= lo {
			mid = lo + units.VoltageStep
		}
		if mid >= hi {
			mid = hi - units.VoltageStep
		}
		ok, err := clean(mid)
		if err != nil {
			return res, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.SafeVmin = hi
	if log != nil {
		log.Emit(trace.Note, "fast-vmin %s core %d: Vmin %v in %d runs",
			spec.ID(), coreID, hi, res.RunsUsed)
	}
	return res, nil
}
