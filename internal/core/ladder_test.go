package core_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

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

// study is a grid on a board configuration: one factory per chip.
type study struct {
	name  string
	chips []func() *xgene.Machine
	cfg   core.Config
}

// protectedStudies are the board configurations a production sweep runs
// on the batch engine. Protection knobs and the failure model persist
// across crash reboots, so these boards are partition-stable across the
// whole grid.
func protectedStudies(t *testing.T) []study {
	t.Helper()
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
	// Fold-only programs, whose SDC cells a sweep scores from its record,
	// between kernel-form ones, against the Framework's full runs;
	// sjeng/ref and gobmk/13x13 share a size. (A fold-only verdict is a
	// mismatch under any nonempty schedule, so the scored outputs
	// themselves are pinned in internal/workload.)
	var mixed []*workload.Spec
	for _, id := range []string{"sjeng/ref", "mcf/ref", "gobmk/13x13", "povray/ref", "bwaves/ref", "bzip2/ref"} {
		spec, err := workload.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		mixed = append(mixed, spec)
	}
	foldOnly := core.DefaultConfig(mixed, []int{0, 4, 7})
	foldOnly.Runs = 3
	one := func(f func() *xgene.Machine) []func() *xgene.Machine { return []func() *xgene.Machine{f} }
	return []study{
		{"dected+adaptive", one(board(silicon.XGene, silicon.Protection{ECC: silicon.DECTED, AdaptiveClocking: true})), testConfig(t)},
		{"dected", one(board(silicon.XGene, silicon.Protection{ECC: silicon.DECTED})), testConfig(t)},
		{"adaptive", one(board(silicon.XGene, silicon.Protection{AdaptiveClocking: true})), testConfig(t)},
		{"itanium", one(board(silicon.Itanium, silicon.Stock())), testConfig(t)},
		{"selftests", one(ttFactory), selftests},
		{"runs-1", one(ttFactory), withRuns(1)},
		{"runs-3", one(ttFactory), withRuns(3)},
		{"fold-only", one(ttFactory), foldOnly},
	}
}

// Every board configuration a production sweep runs on the batch engine
// must match the sequential Framework at every worker count, cold and
// memo-warm.
func TestLadderProtectedEquivalence(t *testing.T) {
	core.FlushCampaignCache()
	for _, tc := range protectedStudies(t) {
		factory := tc.chips[0]
		seqRaw, err := core.New(factory()).Execute(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			cold, warm := coldAndWarm(t, factory, tc.cfg, workers)
			if !reflect.DeepEqual(seqRaw, cold) {
				t.Errorf("%s: workers %d cold: batch run diverges from sequential", tc.name, workers)
			}
			if !reflect.DeepEqual(seqRaw, warm) {
				t.Errorf("%s: workers %d warm: batch run diverges from sequential", tc.name, workers)
			}
		}
	}
}

// Characterize builds its results from the sweeps' step tallies without
// a run record, so it must equal Parse over the sequential Framework's
// stream on every protected board, cold and memo-warm: on an early exit,
// on a grid that lists a benchmark twice (its campaigns merge), on two
// specs that share a name and input but not a size (a merge of two
// different sweeps), and on a study over several chips, whose per-chip
// results concatenate in chip order.
func TestCharacterizeMatchesParse(t *testing.T) {
	studies := protectedStudies(t)

	early := testConfig(t)
	early.StopAfterCrashSteps = 1
	twice := testConfig(t)
	twice.Benchmarks = append(twice.Benchmarks, twice.Benchmarks[0])
	bw := testConfig(t).Benchmarks[0]
	resized := testConfig(t)
	resized.Benchmarks = append(resized.Benchmarks, &workload.Spec{
		Name: bw.Name, Input: bw.Input, Size: bw.Size + 7,
		Profile: bw.Profile, Score: bw.Score, Kernel: bw.Kernel,
	})
	var chips []func() *xgene.Machine
	for _, c := range []silicon.Corner{silicon.TFF, silicon.TSS, silicon.TTT} { // chip-name order
		chips = append(chips, func() *xgene.Machine { return xgene.New(silicon.NewChip(c, 1)) })
	}
	studies = append(studies,
		study{"early-exit", []func() *xgene.Machine{ttFactory}, early},
		study{"listed-twice", []func() *xgene.Machine{ttFactory}, twice},
		study{"two-sizes", []func() *xgene.Machine{ttFactory}, resized},
		study{"three-chips", chips, testConfig(t)},
	)

	exited := false
	for _, tc := range studies {
		var seqRaw []core.RunRecord
		for _, chip := range tc.chips {
			raw, err := core.New(chip()).Execute(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			seqRaw = append(seqRaw, raw...)
		}
		want := core.Parse(seqRaw)
		for _, c := range want {
			if c.Steps[len(c.Steps)-1].Voltage > tc.cfg.StopVoltage {
				exited = true
			}
		}
		for _, workers := range []int{1, 4} {
			core.FlushCampaignCache()
			for _, pass := range []string{"cold", "warm"} {
				var got []*core.CampaignResult
				for _, chip := range tc.chips {
					r := core.NewLadderRunner(chip)
					r.SetParallelism(workers)
					res, err := r.Characterize(tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, res...)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: workers %d %s: Characterize differs from Parse over the sequential stream", tc.name, workers, pass)
				}
			}
		}
	}
	if !exited {
		t.Error("no campaign stopped early; the early-exit path goes untested")
	}

	// Explicit lists: Figure 9's one benchmark per core, and a list that
	// names one campaign twice. A campaign's stream depends only on its
	// identity, so a list's sequential stream is its campaigns'
	// single-campaign studies, in list order.
	var fig9 []core.Campaign
	var specs []*workload.Spec
	var cores []int
	for c, name := range []string{"bwaves", "cactusADM", "dealII", "gromacs", "leslie3d", "mcf", "milc", "namd"} {
		spec, err := workload.LookupName(name)
		if err != nil {
			t.Fatal(err)
		}
		fig9 = append(fig9, core.Campaign{Spec: spec, Core: c})
		specs, cores = append(specs, spec), append(cores, c)
	}
	fig9Cfg := core.DefaultConfig(specs, cores)
	fig9Cfg.Runs = 3
	cfg := testConfig(t)
	bw, mcf := cfg.Benchmarks[0], cfg.Benchmarks[1]
	lists := []struct {
		name      string
		cfg       core.Config
		list      []core.Campaign
		campaigns int // distinct campaigns in the list
	}{
		{"figure9", fig9Cfg, fig9, 8},
		{"named-twice", cfg, []core.Campaign{{Spec: mcf, Core: 3}, {Spec: bw, Core: 0}, {Spec: mcf, Core: 3}}, 2},
	}
	for _, tc := range lists {
		var seqRaw []core.RunRecord
		for _, c := range tc.list {
			one := tc.cfg
			one.Benchmarks, one.Cores = []*workload.Spec{c.Spec}, []int{c.Core}
			raw, err := core.New(ttFactory()).Execute(one)
			if err != nil {
				t.Fatal(err)
			}
			seqRaw = append(seqRaw, raw...)
		}
		want := core.Parse(seqRaw)
		if len(want) != tc.campaigns {
			t.Fatalf("%s: the sequential stream holds %d campaigns, want %d", tc.name, len(want), tc.campaigns)
		}
		for _, workers := range []int{1, 4} {
			core.FlushCampaignCache()
			for _, pass := range []string{"cold", "warm"} {
				r := core.NewLadderRunner(ttFactory)
				r.SetParallelism(workers)
				got, err := r.CharacterizeCampaigns(tc.cfg, tc.list)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: workers %d %s: CharacterizeCampaigns differs from Parse over the sequential stream", tc.name, workers, pass)
				}
			}
		}
	}
}

// A memo-hit Characterize reads the stored step tallies: it builds no
// run record, so neither its allocation count nor its bytes grow with
// the runs per step.
func TestCharacterizeWarmAllocs(t *testing.T) {
	for _, runs := range []int{3, 30} {
		cfg := testConfig(t)
		cfg.Runs = runs
		r := core.NewLadderRunner(ttFactory)
		r.SetParallelism(1)
		core.FlushCampaignCache()
		res, err := r.Characterize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for _, c := range res {
			steps += len(c.Steps)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := r.Characterize(cfg); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / 21 // AllocsPerRun adds a warm-up call
		t.Logf("runs %d: %d campaigns, %d steps: %.0f allocs, %.0f B per warm Characterize", runs, len(res), steps, allocs, perCall)
		if limit := float64(8*len(res) + 64); allocs > limit {
			t.Errorf("runs %d: %.0f allocations per warm Characterize, want at most %.0f (8 a campaign + 64)", runs, allocs, limit)
		}
		if limit := float64(steps*int(unsafe.Sizeof(core.StepResult{}))*2 + 16<<10); perCall > limit {
			t.Errorf("runs %d: %.0f B per warm Characterize, want at most %.0f (two step tallies a step + 16 KiB)", runs, perCall, limit)
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
	if got := core.CountKind(seqLog, trace.RunDone); got != len(seqRaw) {
		t.Fatalf("sequential run events = %d, want one per record (%d)", got, len(seqRaw))
	}

	kinds := []trace.Kind{trace.CampaignStart, trace.CampaignEnd, trace.StepStart,
		trace.RunDone, trace.SystemCrash, trace.Recovery}
	check := func(name string, l *trace.Log) {
		t.Helper()
		for _, k := range kinds {
			if got, want := core.CountKind(l, k), core.CountKind(seqLog, k); got != want {
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
		if crash, rec := core.CountKind(l, trace.SystemCrash), core.CountKind(l, trace.Recovery); crash != rec || crash != lr.Recoveries() {
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
