package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/xgene"
)

func TestCheckpointRoundTrip(t *testing.T) {
	c := NewCheckpoint()
	c.mark("TTT/bwaves/ref/0/2400", []RunRecord{
		{Chip: "TTT", Benchmark: "bwaves", Input: "ref", Core: 0, Frequency: 2400, Voltage: 900},
	})
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Done) != 1 || got.Done[0] != "TTT/bwaves/ref/0/2400" {
		t.Errorf("done = %v", got.Done)
	}
	if len(got.Records) != 1 || got.Records[0].Voltage != 900 {
		t.Errorf("records = %+v", got.Records)
	}
}

func TestLoadCheckpointErrors(t *testing.T) {
	if _, err := LoadCheckpoint(strings.NewReader("{garbage")); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	if _, err := LoadCheckpoint(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
}

func TestMarkIdempotent(t *testing.T) {
	c := NewCheckpoint()
	c.mark("k", []RunRecord{{Voltage: 900}})
	c.mark("k", []RunRecord{{Voltage: 905}})
	if len(c.Done) != 1 || len(c.Records) != 1 {
		t.Errorf("duplicate mark mutated checkpoint: %d/%d", len(c.Done), len(c.Records))
	}
}

// tttLadder is the batch engine over fresh TTT boards at a worker count.
func tttLadder(workers int) *LadderRunner {
	r := NewLadderRunner(func() *xgene.Machine { return xgene.New(silicon.NewChip(silicon.TTT, 1)) })
	r.SetParallelism(workers)
	return r
}

// The resume path: run half the study, "crash", resume from the saved
// checkpoint, and require (a) the completed sweep is not re-run, (b) the
// final records equal an uninterrupted sequential run of the same
// configuration, record for record.
func TestExecuteResumable(t *testing.T) {
	benchSet := specs(t, "gromacs/ref", "mcf/ref", "bwaves/ref")
	mkCfg := func(benchmarks int) Config {
		cfg := DefaultConfig(benchSet[:benchmarks], []int{0, 4})
		cfg.Runs = 3
		return cfg
	}
	want, err := tttFramework().Execute(mkCfg(len(benchSet)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		// Phase 1: only the first benchmark, into a checkpoint.
		ckpt := NewCheckpoint()
		recs1, err := tttLadder(workers).ExecuteResumable(mkCfg(1), ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ckpt.Done) != 2 {
			t.Fatalf("workers %d: checkpoint has %d sweeps, want 2", workers, len(ckpt.Done))
		}

		// Persist + reload (the "crash").
		var buf bytes.Buffer
		if err := ckpt.Save(&buf); err != nil {
			t.Fatal(err)
		}
		resumed, err := LoadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}

		// Phase 2: the full configuration on a fresh engine, resuming.
		// Only the four new sweeps may run.
		r2 := tttLadder(workers)
		l := trace.New(1 << 16)
		r2.SetTrace(l)
		recs2, err := r2.ExecuteResumable(mkCfg(len(benchSet)), resumed)
		if err != nil {
			t.Fatal(err)
		}
		if len(resumed.Done) != 6 {
			t.Fatalf("workers %d: resumed checkpoint has %d sweeps, want 6", workers, len(resumed.Done))
		}
		if got := l.CountKind(trace.CampaignStart); got != 4 {
			t.Errorf("workers %d: resume ran %d campaigns, want 4", workers, got)
		}
		if !reflect.DeepEqual(recs2[:len(recs1)], recs1) {
			t.Fatalf("workers %d: phase-1 records changed across resume", workers)
		}
		if !reflect.DeepEqual(recs2, want) {
			t.Fatalf("workers %d: resumed study differs from the uninterrupted sequential run", workers)
		}

		// Phase 3: a completed checkpoint resumes to itself and runs
		// nothing.
		r3 := tttLadder(workers)
		l = trace.New(1 << 16)
		r3.SetTrace(l)
		recs3, err := r3.ExecuteResumable(mkCfg(len(benchSet)), resumed)
		if err != nil {
			t.Fatal(err)
		}
		if n := l.CountKind(trace.CampaignStart); n != 0 || !reflect.DeepEqual(recs3, want) {
			t.Fatalf("workers %d: completed study re-ran %d campaigns (records equal: %v)", workers, n, reflect.DeepEqual(recs3, want))
		}
	}
}

func TestExecuteResumableNilCheckpoint(t *testing.T) {
	if _, err := tttLadder(1).ExecuteResumable(DefaultConfig(specs(t, "mcf/ref"), []int{0}), nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	if _, err := NewLadderRunner(nil).ExecuteResumable(DefaultConfig(specs(t, "mcf/ref"), []int{0}), NewCheckpoint()); err == nil {
		t.Error("runner without a machine factory accepted")
	}
}

func TestExecuteResumableInvalidConfig(t *testing.T) {
	if _, err := tttLadder(1).ExecuteResumable(Config{}, NewCheckpoint()); err == nil {
		t.Error("invalid config accepted")
	}
}
