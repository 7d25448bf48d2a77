package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xvolt/internal/trace"
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
	tf, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(tf)
	tf.Close()
	if err != nil {
		t.Fatal(err)
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

	// Resume: adds a benchmark without redoing mcf.
	if err := run("TFF", "mcf,gromacs", "4", 2400, 3, 980, 800, 1, out, "", "xgene", ckpt, false, "", "", 1); err != nil {
		t.Fatal(err)
	}
	blob, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "gromacs") {
		t.Error("resumed run missing the new benchmark")
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

// The campaign engine writes the same CSV at -parallelism 1 and 4 as
// the -checkpoint path, which runs the sequential Framework.
func TestRunParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	seq := filepath.Join(dir, "seq.csv")
	if err := run("TTT", "mcf,gromacs", "0,4", 2400, 3, 980, 800, 1, seq, "", "xgene", filepath.Join(dir, "ckpt.json"), false, "", "", 1); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 4} {
		par := filepath.Join(dir, "par.csv")
		if err := run("TTT", "mcf,gromacs", "0,4", 2400, 3, 980, 800, 1, par, "", "xgene", "", false, "", "", parallelism); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("-parallelism %d CSV differs from the sequential -checkpoint output", parallelism)
		}
	}
}
