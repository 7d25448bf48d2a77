package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"xvolt/internal/core"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// ladderVariant runs the batch engine over cfg at a worker count, with or
// without the campaign memo.
func ladderVariant(t *testing.T, factory func() *xgene.Machine, cfg core.Config, workers int, memo bool) []core.RunRecord {
	t.Helper()
	r := core.NewLadderRunner(factory)
	r.SetParallelism(workers)
	r.SetCampaignMemo(memo)
	raw, err := r.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// The batch engine's load-bearing guarantee, as a table over seeds and
// worker counts: sequential Framework.Execute and the batch LadderRunner
// — cold, memo-cold and memo-warm — produce identical raw streams and
// byte-identical parsed CSV.
func TestLadderMatchesSequentialAndParallel(t *testing.T) {
	core.FlushCampaignCache()
	for _, seed := range []int64{1, 7, 42} {
		cfg := testConfig(t)
		cfg.Seed = seed

		fw := core.New(ttFactory())
		seqRaw, err := fw.Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seqCSV := campaignsCSV(t, core.Parse(seqRaw))

		for _, workers := range []int{1, 4, 8} {
			variants := map[string][]core.RunRecord{
				"batch-cold": ladderVariant(t, ttFactory, cfg, workers, false),
				"batch-memo": ladderVariant(t, ttFactory, cfg, workers, true),
				// Second memoized run replays stored streams.
				"batch-warm": ladderVariant(t, ttFactory, cfg, workers, true),
			}
			for name, raw := range variants {
				if !reflect.DeepEqual(seqRaw, raw) {
					t.Fatalf("seed %d workers %d: %s raw stream diverges from sequential", seed, workers, name)
				}
				if got := campaignsCSV(t, core.Parse(raw)); !bytes.Equal(seqCSV, got) {
					t.Fatalf("seed %d workers %d: %s parsed CSV diverges", seed, workers, name)
				}
			}
		}
	}
}

// The early-exit path: with StopAfterCrashSteps disabled the sweep walks
// the full ladder, enabled it truncates — in both cases identically to
// the sequential engine — and the synthesized clean region above SafeVmin
// reports no effects.
func TestLadderEarlyExitAndSynthesis(t *testing.T) {
	core.FlushCampaignCache()
	for _, stop := range []int{0, 1, 2} {
		cfg := testConfig(t)
		cfg.StopAfterCrashSteps = stop

		seqRaw, err := core.New(ttFactory()).Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batRaw := ladderVariant(t, ttFactory, cfg, 4, true)
		if !reflect.DeepEqual(seqRaw, batRaw) {
			t.Fatalf("StopAfterCrashSteps=%d: batch diverges from sequential", stop)
		}
	}

	// Synthesized cells are clean by contract: every record at or above
	// the campaign's safe floor must be effect-free.
	cfg := testConfig(t)
	chip := silicon.NewChip(silicon.TTT, 1)
	raw := ladderVariant(t, ttFactory, cfg, 1, false)
	checked := 0
	for _, rec := range raw {
		spec, err := workload.Lookup(rec.Benchmark + "/" + rec.Input)
		if err != nil {
			t.Fatal(err)
		}
		m := chip.Assess(rec.Core, spec.Profile, spec.Idio(), units.RegimeOf(cfg.Frequency))
		if rec.Voltage < m.SafeVmin {
			continue
		}
		checked++
		if rec.SystemCrashed || rec.OutputMismatch || rec.ExitCode != 0 || rec.DeltaCE != 0 || rec.DeltaUE != 0 {
			t.Fatalf("clean-region record has effects: %+v", rec)
		}
	}
	if checked == 0 {
		t.Fatal("no clean-region records checked")
	}
}

// Protection knobs persist across crash reboots, so protected boards are
// partition-stable: the full grid must match at every worker count.
func TestLadderProtectedEquivalence(t *testing.T) {
	core.FlushCampaignCache()
	factory := func() *xgene.Machine {
		m := ttFactory()
		m.SetProtection(silicon.Protection{ECC: silicon.DECTED, AdaptiveClocking: true})
		return m
	}
	cfg := testConfig(t)
	seqRaw, err := core.New(factory()).Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		if raw := ladderVariant(t, factory, cfg, workers, true); !reflect.DeepEqual(seqRaw, raw) {
			t.Fatalf("workers %d: protected batch run diverges from sequential", workers)
		}
	}
}

// Dirty board state (undervolted SoC rail, over-relaxed DRAM refresh) is
// not partition-stable across campaigns under any engine — a crash resets
// it mid-grid — so its contract is per-campaign: on a single-campaign
// grid all engines agree, including the sampled SoC/refresh draw paths.
func TestLadderDirtyStateSingleCampaign(t *testing.T) {
	core.FlushCampaignCache()
	factories := map[string]func() *xgene.Machine{
		"soc-undervolt": func() *xgene.Machine {
			m := ttFactory()
			if err := m.SetSoCVoltage(850); err != nil {
				t.Fatal(err)
			}
			return m
		},
		"relaxed-refresh": func() *xgene.Machine {
			m := ttFactory()
			if err := m.SetDRAMRefresh(3.0); err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
	bwaves, err := workload.Lookup("bwaves/ref")
	if err != nil {
		t.Fatal(err)
	}
	for name, factory := range factories {
		cfg := core.DefaultConfig([]*workload.Spec{bwaves}, []int{2})
		cfg.Runs = 3
		seqRaw, err := core.New(factory()).Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if raw := ladderVariant(t, factory, cfg, workers, true); !reflect.DeepEqual(seqRaw, raw) {
				t.Fatalf("%s workers %d: batch diverges from sequential", name, workers)
			}
		}
	}
}

// Explicit campaign lists (Figure 9 shape), including a repeated cell,
// must come back in list order, each cell's stream equal to a sequential
// Framework.Execute of that cell alone.
func TestLadderExecuteCampaigns(t *testing.T) {
	core.FlushCampaignCache()
	bwaves, err := workload.Lookup("bwaves/ref")
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := workload.Lookup("mcf/ref")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig([]*workload.Spec{bwaves}, []int{0})
	cfg.Runs = 2
	grid := []core.Campaign{
		{Spec: bwaves, Core: 1},
		{Spec: mcf, Core: 6},
		{Spec: bwaves, Core: 1}, // repeated cell: identical stream twice
	}
	var want []core.RunRecord
	for _, c := range grid {
		cell := cfg
		cell.Benchmarks = []*workload.Spec{c.Spec}
		cell.Cores = []int{c.Core}
		recs, err := core.New(ttFactory()).Execute(cell)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
	}
	lr := core.NewLadderRunner(ttFactory)
	lr.SetParallelism(2)
	got, err := lr.ExecuteCampaigns(cfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("batch ExecuteCampaigns diverges from per-cell sequential execution")
	}
}

// Recoveries must agree with the sequential engine's watchdog, which
// performs exactly one power cycle per system-crash record.
func TestLadderRecoveries(t *testing.T) {
	core.FlushCampaignCache()
	cfg := testConfig(t)
	fw := core.New(ttFactory())
	raw, err := fw.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for _, rec := range raw {
		if rec.SystemCrashed {
			crashes++
		}
	}
	want := fw.Watchdog().Recoveries()
	if want != crashes {
		t.Fatalf("sequential watchdog recoveries = %d, crash records %d", want, crashes)
	}
	for _, memo := range []bool{false, true} {
		lr := core.NewLadderRunner(ttFactory)
		lr.SetParallelism(2)
		lr.SetCampaignMemo(memo)
		if _, err := lr.Execute(cfg); err != nil {
			t.Fatal(err)
		}
		if got := lr.Recoveries(); got != want {
			t.Fatalf("memo=%v: recoveries = %d, want %d", memo, got, want)
		}
	}
}

// The batch engine emits the Framework's full trace schema: for the same
// grid, every per-kind event count matches the sequential engine's —
// cold, memoizing, and on pure memo replay — and the stream satisfies
// the JSONL consistency contract (run events == records, crash events ==
// recovery events == watchdog recoveries).
func TestLadderTraceSchemaParity(t *testing.T) {
	core.FlushCampaignCache()
	cfg := testConfig(t)

	seqLog := trace.New(1 << 20)
	fw := core.New(ttFactory())
	fw.SetTrace(seqLog)
	seqRaw, err := fw.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := seqLog.CountKind(trace.RunDone); got != len(seqRaw) {
		t.Fatalf("sequential run events = %d, want one per record (%d)", got, len(seqRaw))
	}

	kinds := []trace.Kind{trace.CampaignStart, trace.CampaignEnd, trace.StepStart,
		trace.RunDone, trace.SystemCrash, trace.Recovery}
	check := func(name string, l *trace.Log) {
		t.Helper()
		for _, k := range kinds {
			if got, want := l.CountKind(k), seqLog.CountKind(k); got != want {
				t.Errorf("%s: %v events = %d, want %d", name, k, got, want)
			}
		}
	}

	for _, memo := range []bool{false, true} {
		// With the memo on, the second pass replays every campaign from
		// the process-wide cache; its trace must not thin out. A fresh
		// runner per pass keeps Recoveries (cumulative per runner)
		// comparable to one pass's crash events.
		passes := 1
		if memo {
			passes = 2
		}
		for pass := 0; pass < passes; pass++ {
			lr := core.NewLadderRunner(ttFactory)
			lr.SetParallelism(4)
			lr.SetCampaignMemo(memo)
			l := trace.New(1 << 20)
			lr.SetTrace(l)
			if _, err := lr.Execute(cfg); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("memo=%v pass %d", memo, pass), l)
			if crash, rec := l.CountKind(trace.SystemCrash), l.CountKind(trace.Recovery); crash != rec || crash != lr.Recoveries() {
				t.Errorf("memo=%v pass %d: crash=%d recovery=%d reported=%d, want all equal",
					memo, pass, crash, rec, lr.Recoveries())
			}
		}
	}
}
