package xgene

import (
	"math/rand"
	"testing"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
)

// A board that never boots a machine samples the die New would have
// booted.
func TestNewBatchStateMatchesNew(t *testing.T) {
	chip := silicon.NewChip(silicon.TSS, 3)
	if got, want := NewBatchState(chip), New(chip).BatchState(); got != want {
		t.Fatalf("NewBatchState %+v, New(chip).BatchState() %+v", got, want)
	}
}

// TestRunOnCoreDrawsLikeSampleCell pins the batch contract on a live
// board: from equal seeds, RunOnCore and SampleCell plus the SDC replay
// agree on the effects, the EDAC delta, the program output and the
// rng's next draw, across PMD voltages.
func TestRunOnCoreDrawsLikeSampleCell(t *testing.T) {
	spec := mustSpec(t, "bwaves/ref")
	var crashes, sdcs, ces int
	for _, v := range []units.MilliVolts{980, 910, 895, 880, 865} {
		for seed := int64(0); seed < 40; seed++ {
			m := testMachine()
			if err := m.SetPMDVoltage(v); err != nil {
				t.Fatal(err)
			}
			bs := m.BatchState()
			margins := m.Assess(0, spec, units.RegimeOf(units.MaxFrequency))

			live, batch := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			before := m.EDAC().Snapshot()
			res, err := m.RunOnCore(0, spec, live)
			if err != nil {
				t.Fatal(err)
			}
			delta := m.EDAC().Snapshot().Sub(before)

			cell := SampleCell(batch, bs, margins, v)
			out := spec.Golden()
			if e := cell.Effects; e.SDC && !e.SC && !e.AC {
				var inj workload.Bitflip
				inj.Reset(batch, e.SDCBits)
				out = spec.Run(&inj)
			}

			where := v.String()
			if res.GroundTru != cell.Effects {
				t.Fatalf("%s seed %d: RunOnCore effects %+v, SampleCell %+v", where, seed, res.GroundTru, cell.Effects)
			}
			if delta != cell.Delta {
				t.Fatalf("%s seed %d: EDAC delta %+v, SampleCell %+v", where, seed, delta, cell.Delta)
			}
			if res.SystemUp && res.ExitCode == 0 && res.Output != out {
				t.Fatalf("%s seed %d: output %#x, replay %#x", where, seed, res.Output, out)
			}
			if a, b := live.Int63(), batch.Int63(); a != b {
				t.Fatalf("%s seed %d: streams diverged after the run (%d vs %d)", where, seed, a, b)
			}
			if cell.Effects.SC {
				crashes++
			}
			if cell.Effects.SDC && res.Output != spec.Golden() {
				sdcs++
			}
			if cell.Effects.CE {
				ces++
			}
		}
	}
	if crashes == 0 || sdcs == 0 || ces == 0 {
		t.Errorf("coverage: %d crashes, %d observed SDCs, %d CE runs; want each > 0", crashes, sdcs, ces)
	}
}
