package core_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"xvolt/internal/core"
	"xvolt/internal/csvutil"
	"xvolt/internal/obs"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func testConfig(t *testing.T) core.Config {
	t.Helper()
	bwaves, err := workload.Lookup("bwaves/ref")
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := workload.Lookup("mcf/ref")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig([]*workload.Spec{bwaves, mcf}, []int{0, 3, 4, 7})
	cfg.Runs = 3
	return cfg
}

func ttFactory() *xgene.Machine {
	return xgene.New(silicon.NewChip(silicon.TTT, 1))
}

// campaignsCSV serializes parsed results the way the CLIs do, so equality
// below means byte-identical user-visible output.
func campaignsCSV(t *testing.T, results []*core.CampaignResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := csvutil.WriteCampaigns(&buf, results, core.PaperWeights); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Campaign outcomes must not depend on where a campaign sits in the grid:
// running a sub-grid alone reproduces the same records the full grid
// produced for those cells.
func TestRunnerSubGridStable(t *testing.T) {
	core.FlushCampaignCache()
	cfg := testConfig(t)
	full := ladderVariant(t, ttFactory, cfg, 2, false)

	sub := cfg
	sub.Benchmarks = cfg.Benchmarks[1:2]
	sub.Cores = []int{7}
	r := core.NewLadderRunner(ttFactory)
	r.SetCampaignMemo(false)
	got, err := r.ExecuteCampaigns(sub, sub.Grid())
	if err != nil {
		t.Fatal(err)
	}

	var want []core.RunRecord
	for _, rec := range full {
		if rec.Benchmark == sub.Benchmarks[0].Name && rec.Core == 7 {
			want = append(want, rec)
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("sub-grid records differ from the full grid's (position dependence)")
	}
}

// A LadderRunner must survive concurrent Execute calls (run under -race
// in CI): each call gets private machines; shared state is only the
// board pool, the campaign memo, metrics, trace and the recovery counter.
func TestRunnerConcurrentExecutes(t *testing.T) {
	core.FlushCampaignCache()
	cfg := testConfig(t)
	r := core.NewLadderRunner(ttFactory)
	r.SetParallelism(3)
	r.SetMetrics(obs.NewRegistry())
	r.SetTrace(trace.New(64))

	const calls = 4
	outs := make([][]core.RunRecord, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, err := r.Execute(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = raw
		}(i)
	}
	wg.Wait()
	for i := 1; i < calls; i++ {
		if !reflect.DeepEqual(outs[0], outs[i]) {
			t.Fatalf("concurrent call %d produced different records", i)
		}
	}
	crashes := 0
	for _, rec := range outs[0] {
		if rec.SystemCrashed {
			crashes++
		}
	}
	if got := r.Recoveries(); got != calls*crashes {
		t.Errorf("recoveries = %d, want %d (one per crash record per call)", got, calls*crashes)
	}
}

func TestRunnerValidation(t *testing.T) {
	cfg := testConfig(t)
	if _, err := core.NewLadderRunner(nil).Execute(cfg); err == nil {
		t.Error("nil machine factory accepted")
	}
	r := core.NewLadderRunner(ttFactory)
	if _, err := r.ExecuteCampaigns(cfg, []core.Campaign{{Spec: nil, Core: 0}}); err == nil {
		t.Error("nil campaign spec accepted")
	}
	bad := []core.Campaign{{Spec: cfg.Benchmarks[0], Core: silicon.NumCores}}
	if _, err := r.ExecuteCampaigns(cfg, bad); err == nil {
		t.Error("out-of-range campaign core accepted")
	}
	broken := cfg
	broken.Runs = 0
	if _, err := r.Execute(broken); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunnerMetricsAndGrid(t *testing.T) {
	cfg := testConfig(t)
	grid := cfg.Grid()
	if len(grid) != len(cfg.Benchmarks)*len(cfg.Cores) {
		t.Fatalf("grid has %d cells", len(grid))
	}
	// Canonical order: benchmarks outer, cores inner.
	if grid[0].Spec.Name != cfg.Benchmarks[0].Name || grid[0].Core != cfg.Cores[0] {
		t.Errorf("grid[0] = %s/%d", grid[0].Spec.Name, grid[0].Core)
	}
	if grid[len(cfg.Cores)].Spec.Name != cfg.Benchmarks[1].Name {
		t.Errorf("grid stride broken: %s", grid[len(cfg.Cores)].Spec.Name)
	}

	reg := obs.NewRegistry()
	r := core.NewLadderRunner(ttFactory)
	r.SetParallelism(2)
	r.SetMetrics(reg)
	if _, err := r.Execute(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"xvolt_runner_campaigns_done_total 8",
		"xvolt_runner_workers 0",
		"xvolt_runner_busy_workers 0",
		"xvolt_runner_queued_campaigns 0",
		"xvolt_runner_campaign_seconds",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}

// CampaignSeed is the determinism keystone: stable across calls, and any
// coordinate change moves the seed.
func TestCampaignSeed(t *testing.T) {
	base := core.CampaignSeed(1, "TTT", "bwaves", "ref", 0)
	if base != core.CampaignSeed(1, "TTT", "bwaves", "ref", 0) {
		t.Fatal("CampaignSeed not stable")
	}
	variants := []int64{
		core.CampaignSeed(2, "TTT", "bwaves", "ref", 0),
		core.CampaignSeed(1, "TTF", "bwaves", "ref", 0),
		core.CampaignSeed(1, "TTT", "mcf", "ref", 0),
		core.CampaignSeed(1, "TTT", "bwaves", "train", 0),
		core.CampaignSeed(1, "TTT", "bwaves", "ref", 1),
	}
	seen := map[int64]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collides", i)
		}
		seen[v] = true
	}
}
