package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"xvolt/internal/core"
	"xvolt/internal/selftest"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// ladderVariant runs the batch engine over cfg at a worker count on a
// fresh runner. Campaigns already in the process-wide memo replay from
// it; call core.FlushCampaignCache first for a cold run.
func ladderVariant(t *testing.T, factory func() *xgene.Machine, cfg core.Config, workers int) []core.RunRecord {
	t.Helper()
	r := core.NewLadderRunner(factory)
	r.SetParallelism(workers)
	raw, err := r.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// coldAndWarm runs cfg twice at a worker count: first with the memo
// flushed, so every campaign sweeps its ladder, then again, so every
// campaign replays the stream the cold run stored.
func coldAndWarm(t *testing.T, factory func() *xgene.Machine, cfg core.Config, workers int) (cold, warm []core.RunRecord) {
	t.Helper()
	core.FlushCampaignCache()
	cold = ladderVariant(t, factory, cfg, workers)
	return cold, ladderVariant(t, factory, cfg, workers)
}

// The batch engine's load-bearing guarantee, as a table over seeds and
// worker counts: sequential Framework.Execute and the batch LadderRunner
// — cold and memo-warm — produce identical raw streams and
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
			cold, warm := coldAndWarm(t, ttFactory, cfg, workers)
			for name, raw := range map[string][]core.RunRecord{"batch-cold": cold, "batch-warm": warm} {
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
		batRaw := ladderVariant(t, ttFactory, cfg, 4)
		if !reflect.DeepEqual(seqRaw, batRaw) {
			t.Fatalf("StopAfterCrashSteps=%d: batch diverges from sequential", stop)
		}
	}

	// Synthesized cells are clean by contract: every record at or above
	// the campaign's safe floor must be effect-free. The run is cold, so
	// these records come from synthesis, not from the memo.
	cfg := testConfig(t)
	chip := silicon.NewChip(silicon.TTT, 1)
	core.FlushCampaignCache()
	raw := ladderVariant(t, ttFactory, cfg, 1)
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

// Every board configuration a production sweep runs on the batch engine
// must match the sequential Framework at every worker count, cold and
// memo-warm. Protection knobs and the failure model persist across crash
// reboots, so these boards are partition-stable across the whole grid.
func TestLadderProtectedEquivalence(t *testing.T) {
	core.FlushCampaignCache()
	board := func(model silicon.Model, p silicon.Protection) func() *xgene.Machine {
		return func() *xgene.Machine {
			m := xgene.NewWithModel(silicon.NewChip(silicon.TTT, 1), model)
			m.SetProtection(p)
			return m
		}
	}
	withRuns := func(n int) core.Config {
		cfg := testConfig(t)
		cfg.Runs = n
		return cfg
	}
	// selftest.Localize's sweep: the §3.4 component tests on core 4, down
	// to 760 mV.
	selftests := core.DefaultConfig(selftest.Tests(), []int{4})
	selftests.Runs = 3
	selftests.StopVoltage = 760
	cases := []struct {
		name    string
		factory func() *xgene.Machine
		cfg     core.Config
	}{
		{"dected+adaptive", board(silicon.XGene, silicon.Protection{ECC: silicon.DECTED, AdaptiveClocking: true}), testConfig(t)},
		{"dected", board(silicon.XGene, silicon.Protection{ECC: silicon.DECTED}), testConfig(t)},
		{"adaptive", board(silicon.XGene, silicon.Protection{AdaptiveClocking: true}), testConfig(t)},
		{"itanium", board(silicon.Itanium, silicon.Stock()), testConfig(t)},
		{"selftests", ttFactory, selftests},
		{"runs-1", ttFactory, withRuns(1)},
		{"runs-3", ttFactory, withRuns(3)},
	}
	for _, tc := range cases {
		seqRaw, err := core.New(tc.factory()).Execute(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			cold, warm := coldAndWarm(t, tc.factory, tc.cfg, workers)
			if !reflect.DeepEqual(seqRaw, cold) {
				t.Errorf("%s: workers %d cold: batch run diverges from sequential", tc.name, workers)
			}
			if !reflect.DeepEqual(seqRaw, warm) {
				t.Errorf("%s: workers %d warm: batch run diverges from sequential", tc.name, workers)
			}
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
			if raw := ladderVariant(t, factory, cfg, workers); !reflect.DeepEqual(seqRaw, raw) {
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
	// A cold run, then a warm one replaying the memo: memo hits still
	// count their crash records.
	core.FlushCampaignCache()
	for _, pass := range []string{"cold", "warm"} {
		lr := core.NewLadderRunner(ttFactory)
		lr.SetParallelism(2)
		if _, err := lr.Execute(cfg); err != nil {
			t.Fatal(err)
		}
		if got := lr.Recoveries(); got != want {
			t.Fatalf("%s: recoveries = %d, want %d", pass, got, want)
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

	// The cold pass sweeps every campaign; the warm pass replays every
	// campaign from the process-wide memo, and its trace must not thin
	// out. A fresh runner per pass keeps Recoveries (cumulative per
	// runner) comparable to one pass's crash events.
	core.FlushCampaignCache()
	for _, pass := range []string{"cold", "warm"} {
		lr := core.NewLadderRunner(ttFactory)
		lr.SetParallelism(4)
		l := trace.New(1 << 20)
		lr.SetTrace(l)
		if _, err := lr.Execute(cfg); err != nil {
			t.Fatal(err)
		}
		check(pass, l)
		if crash, rec := l.CountKind(trace.SystemCrash), l.CountKind(trace.Recovery); crash != rec || crash != lr.Recoveries() {
			t.Errorf("%s: crash=%d recovery=%d reported=%d, want all equal",
				pass, crash, rec, lr.Recoveries())
		}
	}
}

// A traced study is accounted in grid order: at four workers the JSONL
// stream, seq and `recovery #N` numbering included, equals the one-worker
// stream byte for byte. Both runs sweep cold (memo flushed), so the
// campaigns really run concurrently.
func TestLadderTraceWorkerInvariant(t *testing.T) {
	cfg := testConfig(t)
	jsonl := func(workers int) []byte {
		t.Helper()
		core.FlushCampaignCache()
		var buf bytes.Buffer
		l := trace.New(1)
		l.SetSink(trace.NewJSONLSink(&buf))
		lr := core.NewLadderRunner(ttFactory)
		lr.SetParallelism(workers)
		lr.SetTrace(l)
		if _, err := lr.Execute(cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := jsonl(1)
	four := jsonl(4)
	if !bytes.Contains(one, []byte(`"kind":"recovery"`)) {
		t.Fatal("the grid has no crashes; the recovery numbering goes untested")
	}
	if bytes.Equal(one, four) {
		return
	}
	a, b := bytes.Split(one, []byte("\n")), bytes.Split(four, []byte("\n"))
	for i := 0; i < len(a) && i < len(b); i++ {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("JSONL at 4 workers differs from 1 worker at line %d:\n  1: %s\n  4: %s", i+1, a[i], b[i])
		}
	}
	t.Fatalf("JSONL at 4 workers has %d lines, at 1 worker %d", len(b), len(a))
}
