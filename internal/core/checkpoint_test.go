package core

import (
	"bytes"
	"errors"
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
	for name, in := range map[string]string{
		"garbage":           "{garbage\n",
		"no version line":   `{"version":2}`,
		"future version":    "{\"version\": 99}\n",
		"keyless campaign":  "{\"version\":2}\n{\"records\":[]}\n",
		"repeated campaign": "{\"version\":2}\n{\"key\":\"k\"}\n{\"key\":\"k\"}\n",
		"torn middle line":  "{\"version\":2}\n{\"key\":\"k\",\"rec\n{\"key\":\"j\"}\n",
		"trailing data":     "{\"version\":2}\n{\"key\":\"k\"} {}\n",
	} {
		if _, err := LoadCheckpoint(strings.NewReader(in)); err == nil {
			t.Errorf("%s: checkpoint accepted", name)
		}
	}
	// A version-1 checkpoint (one indented document) gets its own error.
	v1 := "{\n \"version\": 1,\n \"done\": [\"k\"],\n \"records\": []\n}\n"
	if _, err := LoadCheckpoint(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 checkpoint: err = %v, want a version-1 error", err)
	}
}

// TestLoadCheckpointDropsTornTail: bytes after the last newline are an
// interrupted append, and the campaigns before them load.
func TestLoadCheckpointDropsTornTail(t *testing.T) {
	c := NewCheckpoint()
	c.add("TTT/mcf/ref/0/2400", []RunRecord{{Benchmark: "mcf", Voltage: 900}})
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"key":"TTT/mcf/ref/4/2400","records":[{"Chip":"T`)
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Done, c.Done) || !reflect.DeepEqual(got.Records, c.Records) {
		t.Errorf("loaded %v / %+v, want %v / %+v", got.Done, got.Records, c.Done, c.Records)
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
		if got := CountKind(l, trace.CampaignStart); got != 4 {
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
		if n := CountKind(l, trace.CampaignStart); n != 0 || !reflect.DeepEqual(recs3, want) {
			t.Fatalf("workers %d: completed study re-ran %d campaigns (records equal: %v)", workers, n, reflect.DeepEqual(recs3, want))
		}
	}
}

// failingJournal takes the first n lines and tears the next one: it
// writes half of it and fails, which is what a kill mid-append leaves.
type failingJournal struct {
	buf  bytes.Buffer
	left int
}

func (j *failingJournal) Write(p []byte) (int, error) {
	if j.left == 0 {
		n, _ := j.buf.Write(p[:len(p)/2])
		return n, errors.New("journal device gone")
	}
	j.left--
	return j.buf.Write(p)
}

// TestExecuteResumableAfterKill: a study whose journal dies after k
// campaigns keeps exactly those k on disk, and a fresh engine resumed
// from the bytes written finishes the study with the records of an
// uninterrupted sequential run, running only the other campaigns.
func TestExecuteResumableAfterKill(t *testing.T) {
	cfg := DefaultConfig(specs(t, "gromacs/ref", "mcf/ref", "bwaves/ref"), []int{0, 4})
	cfg.Runs = 3
	want, err := tttFramework().Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const campaigns = 6
	for _, workers := range []int{1, 4} {
		for k := 0; k < campaigns; k++ {
			j := &failingJournal{left: k}
			ckpt := NewCheckpoint()
			if err := ckpt.Save(&j.buf); err != nil {
				t.Fatal(err)
			}
			ckpt.SetJournal(j)
			if _, err := tttLadder(workers).ExecuteResumable(cfg, ckpt); err == nil {
				t.Fatalf("workers %d k %d: journal failure not reported", workers, k)
			}

			resumed, err := LoadCheckpoint(bytes.NewReader(j.buf.Bytes()))
			if err != nil {
				t.Fatalf("workers %d k %d: %v", workers, k, err)
			}
			if len(resumed.Done) != k {
				t.Fatalf("workers %d k %d: journal holds %d campaigns", workers, k, len(resumed.Done))
			}
			r := tttLadder(workers)
			l := trace.New(1 << 16)
			r.SetTrace(l)
			got, err := r.ExecuteResumable(cfg, resumed)
			if err != nil {
				t.Fatal(err)
			}
			if n := CountKind(l, trace.CampaignStart); n != campaigns-k {
				t.Errorf("workers %d k %d: resume ran %d campaigns, want %d", workers, k, n, campaigns-k)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers %d k %d: resumed study differs from the uninterrupted sequential run", workers, k)
			}
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
