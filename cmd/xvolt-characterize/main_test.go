package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xvolt/internal/core"
	"xvolt/internal/csvutil"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/xgene"
)

func TestResolveBenchmarks(t *testing.T) {
	specs, err := resolveBenchmarks("all")
	if err != nil || len(specs) != 10 {
		t.Errorf("all = %d specs, %v", len(specs), err)
	}
	specs, err = resolveBenchmarks("suite")
	if err != nil || len(specs) != 40 {
		t.Errorf("suite = %d specs, %v", len(specs), err)
	}
	specs, err = resolveBenchmarks("bwaves, mcf/train")
	if err != nil || len(specs) != 2 {
		t.Fatalf("mixed = %d specs, %v", len(specs), err)
	}
	if specs[0].ID() != "bwaves/ref" || specs[1].ID() != "mcf/train" {
		t.Errorf("resolved %s, %s", specs[0].ID(), specs[1].ID())
	}
	if _, err := resolveBenchmarks("quake"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := resolveBenchmarks("quake/ref"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestParseCores(t *testing.T) {
	cores, err := parseCores("0, 4,7")
	if err != nil || len(cores) != 3 || cores[2] != 7 {
		t.Errorf("cores = %v, %v", cores, err)
	}
	if _, err := parseCores("0,x"); err == nil {
		t.Error("bad core accepted")
	}
}

// A full CLI pass: run a tiny campaign to a temp CSV, resume from a
// checkpoint, and bisect in fast mode.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.csv")
	raw := filepath.Join(dir, "raw.csv")
	ckpt := filepath.Join(dir, "ckpt.json")
	jsonl := filepath.Join(dir, "trace.jsonl")

	if err := run("TFF", "mcf", "4", 2400, 3, 980, 800, 1, out, raw, "xgene", ckpt, false, jsonl, "", 1); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "TFF,mcf,ref,4") {
		t.Errorf("csv missing campaign rows:\n%.200s", blob)
	}
	if _, err := os.Stat(raw); err != nil {
		t.Errorf("raw log missing: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("checkpoint missing: %v", err)
	}
	// The -trace-out stream is valid JSONL, one object per emitted event,
	// telling the campaign's whole story.
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var e trace.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace-out line %q: %v", line, err)
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		t.Fatal("trace-out produced no events")
	}
	kinds := map[trace.Kind]int{}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		kinds[e.Kind]++
	}
	if kinds[trace.CampaignStart] != 1 || kinds[trace.RunDone] == 0 || kinds[trace.Recovery] == 0 {
		t.Errorf("trace-out kinds = %v", kinds)
	}

	// Resume: adds a benchmark without redoing mcf, and writes the CSV of
	// the uninterrupted study.
	if err := run("TFF", "mcf,gromacs", "4", 2400, 3, 980, 800, 1, out, "", "xgene", ckpt, false, "", "", 2); err != nil {
		t.Fatal(err)
	}
	blob, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "gromacs") {
		t.Error("resumed run missing the new benchmark")
	}
	whole := filepath.Join(dir, "whole.csv")
	if err := run("TFF", "mcf,gromacs", "4", 2400, 3, 980, 800, 1, whole, "", "xgene", "", false, "", "", 2); err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile(whole); err != nil || !bytes.Equal(blob, want) {
		t.Errorf("resumed study's CSV differs from the uninterrupted run's (%v)", err)
	}

	// Fast mode bisects on the sequential Framework and writes no CSV.
	if err := run("TFF", "mcf", "4", 2400, 3, 980, 800, 1, "-", "", "xgene", "", true, "", "", 1); err != nil {
		t.Fatal(err)
	}

	// Validation errors surface.
	if err := run("XXX", "mcf", "4", 2400, 3, 980, 800, 1, "-", "", "xgene", "", false, "", "", 1); err == nil {
		t.Error("bad corner accepted")
	}
	if err := run("TTT", "mcf", "4", 2400, 3, 980, 800, 1, "-", "", "warp", "", false, "", "", 1); err == nil {
		t.Error("bad model accepted")
	}
	if err := run("TTT", "mcf", "4", 2400, 3, 980, 800, 1, "-", "", "xgene", "", false, filepath.Join(dir, "no-such-dir", "t.jsonl"), "", 1); err == nil {
		t.Error("unwritable trace-out accepted")
	}
}

// The sequential oracle: on the CI smoke's 248-line grid, the CSV the
// command writes at -parallelism 1 and 4, and on the -checkpoint path,
// must equal the one the sequential Framework's Execute yields for the
// same board and configuration.
func TestRunParallelMatchesSequential(t *testing.T) {
	specs, err := resolveBenchmarks("mcf,gromacs,bwaves")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(specs, []int{0, 3, 4})
	cfg.Runs = 3
	// The command fabricates TSS from seed 3.
	recs, err := core.New(xgene.New(silicon.NewChip(silicon.TSS, 3))).Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := csvutil.WriteCampaigns(&want, core.Parse(recs), core.PaperWeights); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(want.String(), "\n"); n != 248 {
		t.Fatalf("oracle CSV has %d lines, want the smoke grid's 248", n)
	}

	dir := t.TempDir()
	variants := []struct {
		name        string
		ckpt        string
		parallelism int
	}{
		{"parallelism-1", "", 1},
		{"parallelism-4", "", 4},
		{"checkpoint", filepath.Join(dir, "ckpt.json"), 0},
	}
	for _, v := range variants {
		core.FlushCampaignCache()
		out := filepath.Join(dir, v.name+".csv")
		if err := run("TSS", "mcf,gromacs,bwaves", "0,3,4", 2400, 3, 980, 800, 1, out, "", "xgene", v.ckpt, false, "", "", v.parallelism); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s CSV differs from the sequential Framework's", v.name)
		}
	}
}
