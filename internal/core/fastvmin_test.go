package core

import (
	"fmt"
	"testing"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// Bisection must agree with the full sweep on the Vmin it finds, using far
// fewer runs.
func TestFindVminFastMatchesSweep(t *testing.T) {
	for _, id := range []string{"bwaves/ref", "mcf/ref", "gamess/ref"} {
		spec := specs(t, id)[0]
		// Reference: full sweep.
		fwSweep := tttFramework()
		cfgSweep := DefaultConfig(specs(t, id), []int{4})
		cfgSweep.Runs = 10
		results, err := fwSweep.Characterize(cfgSweep)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := results[0].SafeVmin()
		if !ok {
			t.Fatalf("%s: sweep found no Vmin", id)
		}
		sweepRuns := 0
		for _, s := range results[0].Steps {
			sweepRuns += s.Tally.N
		}

		// Bisection on a fresh machine.
		fwFast := tttFramework()
		cfgFast := DefaultConfig(specs(t, id), []int{4})
		got, err := fwFast.FindVminFast(spec, 4, cfgFast, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got.SafeVmin < want-units.VoltageStep || got.SafeVmin > want+units.VoltageStep {
			t.Errorf("%s: fast Vmin %v, sweep %v (want within one step)", id, got.SafeVmin, want)
		}
		if got.RunsUsed >= sweepRuns/2 {
			t.Errorf("%s: bisection used %d runs vs sweep's %d — no economy", id, got.RunsUsed, sweepRuns)
		}
	}
}

// bisectors are the bisection's entry points, each on a fresh TTT board
// of seed 1: the Framework oracle, the die bisection at the board's
// margins, and the campaign engine's.
func bisectors() map[string]func(spec *workload.Spec, coreID int, cfg Config, confirm int) (FastVminResult, error) {
	chip := silicon.NewChip(silicon.TTT, 1)
	return map[string]func(*workload.Spec, int, Config, int) (FastVminResult, error){
		"framework": tttFramework().FindVminFast,
		"die": func(spec *workload.Spec, coreID int, cfg Config, confirm int) (FastVminResult, error) {
			margins := chip.Assess(coreID, spec.Profile, spec.Idio(), units.RegimeOf(cfg.Frequency))
			return FindVminOnDie(xgene.NewBatchState(chip), margins, spec, coreID, cfg, confirm)
		},
		"runner": NewLadderRunner(func() *xgene.Machine { return xgene.New(chip) }).FindVminFast,
	}
}

func TestFindVminFastValidation(t *testing.T) {
	spec := specs(t, "mcf/ref")[0]
	cfg := DefaultConfig(specs(t, "mcf/ref"), []int{4})
	for name, find := range bisectors() {
		if _, err := find(spec, 4, cfg, 0); err == nil {
			t.Errorf("%s: confirm=0 accepted", name)
		}
		if _, err := find(spec, 4, Config{}, 3); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
		if name == "die" {
			continue // its caller assessed the core already
		}
		if _, err := find(spec, 8, cfg, 3); err == nil {
			t.Errorf("%s: core 8 accepted", name)
		}
	}
	if _, err := NewLadderRunner(nil).FindVminFast(spec, 4, cfg, 3); err == nil {
		t.Error("runner without a board bisected")
	}
}

// A start voltage already inside the unsafe region must be reported, not
// silently returned as the Vmin.
func TestFindVminFastDirtyStart(t *testing.T) {
	spec := specs(t, "bwaves/ref")[0]
	cfg := DefaultConfig(specs(t, "bwaves/ref"), []int{0})
	cfg.StartVoltage = 860 // deep inside bwaves/core0's bad region
	cfg.StopVoltage = 850
	for name, find := range bisectors() {
		if _, err := find(spec, 0, cfg, 5); err == nil {
			t.Errorf("%s: dirty start voltage not reported", name)
		}
	}
}

// The die bisection against its oracle: FindVminFast on a fresh board of
// the same die must find the same floor in the same runs, fail alike,
// boot once past its first for every crash the die bisection counts,
// and leave the characterize stream at the same next draw — over three
// corners, the primary suite, all eight cores and three confirmation
// counts.
func TestFindVminOnDieMatchesFramework(t *testing.T) {
	cases, crashes := 0, 0
	for _, corner := range []silicon.Corner{silicon.TTT, silicon.TFF, silicon.TSS} {
		chip := silicon.NewChip(corner, 7)
		bs := xgene.NewBatchState(chip)
		for _, spec := range workload.PrimarySuite() {
			for coreID := 0; coreID < silicon.NumCores; coreID++ {
				for _, confirm := range []int{1, 3, 10} {
					cases++
					cfg := DefaultConfig([]*workload.Spec{spec}, []int{coreID})
					margins := chip.Assess(coreID, spec.Profile, spec.Idio(), units.RegimeOf(cfg.Frequency))
					cfg.Seed = int64(cases)
					name := fmt.Sprintf("%s %s core %d confirm %d", chip.Name, spec.ID(), coreID, confirm)

					fw := New(xgene.New(chip))
					want, wantErr := fw.FindVminFast(spec, coreID, cfg, confirm)
					got, gotErr := FindVminOnDie(bs, margins, spec, coreID, cfg, confirm)
					if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
					}
					if got != want {
						t.Fatalf("%s: %+v, oracle %+v", name, got, want)
					}
					if boots := fw.Machine().BootCount(); got.Crashes != boots-1 {
						t.Fatalf("%s: %d crashes, oracle board booted %d times", name, got.Crashes, boots)
					}
					crashes += got.Crashes

					rng := campaignRand(chip.Name, spec, coreID, &cfg)
					if _, err := bisectOnDie(rng, bs, margins, spec, coreID, &cfg, confirm, nil, nil); (err == nil) != (wantErr == nil) {
						t.Fatalf("%s: bisectOnDie error %v", name, err)
					}
					if a, b := rng.Int63(), fw.rng.Int63(); a != b {
						t.Fatalf("%s: next draw %d, oracle %d", name, a, b)
					}
				}
			}
		}
	}
	if cases != 720 || crashes == 0 {
		t.Fatalf("%d cases with %d crashes; want 720 with some crashes", cases, crashes)
	}
	t.Logf("%d cases, %d crashes", cases, crashes)
}
