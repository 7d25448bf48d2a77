// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated platform: the Fig. 3/4 characterization
// sweeps, the Fig. 5 severity map, the §4.3 prediction cases (Figs. 7/8),
// the Fig. 9 energy/performance trade-off, the §3.2 guardband numbers and
// the §3.4 self-test localization.
//
// The same drivers back the cmd/xvolt-report CLI, the repository-level
// benchmarks (one per table/figure) and EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"

	"xvolt/internal/core"
	"xvolt/internal/energy"
	"xvolt/internal/predict"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// Options tune experiment cost. The paper's protocol is 10 runs per
// voltage step; Quick cuts repetitions for smoke tests and benchmarks.
type Options struct {
	// Runs per voltage step (10 in the paper).
	Runs int
	// Seed drives all the frameworks' RNG streams.
	Seed int64
	// Parallelism is the campaign-engine worker count: 0 (the default)
	// uses GOMAXPROCS, 1 forces a single worker. Results are identical at
	// any setting — every campaign draws from its own seed-derived RNG
	// stream (core.CampaignSeed) — so this only trades wall clock.
	Parallelism int
}

func (o Options) normalize() Options {
	if o.Runs < 1 {
		o.Runs = 1
	}
	return o
}

// runner builds the campaign engine whose workers each get a private
// board from the factory, at the options' parallelism.
func (o Options) runner(newMachine func() *xgene.Machine) *core.LadderRunner {
	r := core.NewLadderRunner(newMachine)
	r.SetParallelism(o.Parallelism)
	return r
}

// CoreResult holds one (chip, benchmark, core) characterization summary.
type CoreResult struct {
	SafeVmin  units.MilliVolts
	HasVmin   bool
	CrashVmax units.MilliVolts
	HasCrash  bool
}

// Fig4Result is the full three-chip characterization of Fig. 4, plus the
// raw campaign results for downstream reductions (Fig. 3, Fig. 5, §3.2).
type Fig4Result struct {
	Chips      []string
	Benchmarks []string
	// PerCore[chip][benchmark][core] summarizes each campaign.
	PerCore map[string]map[string][silicon.NumCores]CoreResult
	// Campaigns holds the underlying parsed results.
	Campaigns []*core.CampaignResult
}

// Figure4 characterizes the ten primary benchmarks on all eight cores of
// the three paper chips at 2.4 GHz — the full Fig. 4 dataset.
func Figure4(opt Options) (*Fig4Result, error) {
	opt = opt.normalize()
	res := &Fig4Result{PerCore: map[string]map[string][silicon.NumCores]CoreResult{}}
	for _, spec := range workload.PrimarySuite() {
		res.Benchmarks = append(res.Benchmarks, spec.Name)
	}
	allCores := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, chip := range silicon.PaperChips() {
		chip := chip
		r := opt.runner(func() *xgene.Machine { return xgene.New(chip) })
		cfg := core.DefaultConfig(workload.PrimarySuite(), allCores)
		cfg.Runs = opt.Runs
		cfg.Seed = opt.Seed
		results, err := r.Characterize(cfg)
		if err != nil {
			return nil, err
		}
		res.Chips = append(res.Chips, chip.Name)
		byBench := map[string][silicon.NumCores]CoreResult{}
		for _, c := range results {
			arr := byBench[c.Benchmark]
			cr := CoreResult{}
			if v, ok := c.SafeVmin(); ok {
				cr.SafeVmin, cr.HasVmin = v, true
			}
			if v, ok := c.CrashVoltage(); ok {
				cr.CrashVmax, cr.HasCrash = v, true
			}
			arr[c.Core] = cr
			byBench[c.Benchmark] = arr
		}
		res.PerCore[chip.Name] = byBench
		res.Campaigns = append(res.Campaigns, results...)
	}
	return res, nil
}

// RobustVmin returns the most-robust-core (lowest) safe Vmin for a
// (chip, benchmark) pair — the Fig. 3 reduction.
func (f *Fig4Result) RobustVmin(chip, benchmark string) (units.MilliVolts, bool) {
	arr, ok := f.PerCore[chip][benchmark]
	if !ok {
		return 0, false
	}
	best := units.MilliVolts(0)
	found := false
	for _, cr := range arr {
		if !cr.HasVmin {
			continue
		}
		if !found || cr.SafeVmin < best {
			best, found = cr.SafeVmin, true
		}
	}
	return best, found
}

// AverageVmin returns the per-chip average safe Vmin over all cores and
// benchmarks — Fig. 4's green line, averaged.
func (f *Fig4Result) AverageVmin(chip string) (float64, bool) {
	sum, n := 0.0, 0
	for _, arr := range f.PerCore[chip] {
		for _, cr := range arr {
			if cr.HasVmin {
				sum += float64(cr.SafeVmin)
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// AverageCrash returns the per-chip average crash voltage — Fig. 4's red
// line, averaged.
func (f *Fig4Result) AverageCrash(chip string) (float64, bool) {
	sum, n := 0.0, 0
	for _, arr := range f.PerCore[chip] {
		for _, cr := range arr {
			if cr.HasCrash {
				sum += float64(cr.CrashVmax)
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Fig5Result is the bwaves-on-TTT severity map of Fig. 5.
type Fig5Result struct {
	// Voltages in descending order (the map's rows).
	Voltages []units.MilliVolts
	// Severity[core][i] is the severity at Voltages[i] (NaN-free: missing
	// steps are -1).
	Severity [silicon.NumCores][]float64
}

// Figure5 characterizes bwaves on every core of the TTT chip and returns
// the severity-per-voltage matrix.
func Figure5(opt Options) (*Fig5Result, error) {
	opt = opt.normalize()
	r := opt.runner(func() *xgene.Machine { return xgene.New(silicon.NewChip(silicon.TTT, 1)) })
	spec, err := workload.Lookup("bwaves/ref")
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig([]*workload.Spec{spec}, []int{0, 1, 2, 3, 4, 5, 6, 7})
	cfg.Runs = opt.Runs
	cfg.Seed = opt.Seed
	results, err := r.Characterize(cfg)
	if err != nil {
		return nil, err
	}
	voltSet := map[units.MilliVolts]bool{}
	for _, c := range results {
		for _, s := range c.Steps {
			voltSet[s.Voltage] = true
		}
	}
	res := &Fig5Result{}
	for v := range voltSet {
		res.Voltages = append(res.Voltages, v)
	}
	sort.Slice(res.Voltages, func(a, b int) bool { return res.Voltages[a] > res.Voltages[b] })
	// Voltage → row index, so filling the matrix is O(steps) instead of the
	// old O(steps × voltages) scan per record.
	idx := make(map[units.MilliVolts]int, len(res.Voltages))
	for i, v := range res.Voltages {
		idx[v] = i
	}
	for coreID := 0; coreID < silicon.NumCores; coreID++ {
		res.Severity[coreID] = make([]float64, len(res.Voltages))
		for i := range res.Severity[coreID] {
			res.Severity[coreID][i] = -1
		}
	}
	for _, c := range results {
		for _, s := range c.Steps {
			res.Severity[c.Core][idx[s.Voltage]] = s.Severity(core.PaperWeights)
		}
	}
	return res, nil
}

// PredictionResult bundles the three §4.3 cases.
type PredictionResult struct {
	Case1 predict.CaseResult // Vmin, sensitive core
	Case2 predict.CaseResult // severity, sensitive core (Fig. 7)
	Case3 predict.CaseResult // severity, robust core (Fig. 8)
}

// Prediction runs the full §4 flow: characterize the 40-input suite on the
// sensitive and robust cores of TTT, profile all benchmarks, then train
// and evaluate the three cases.
func Prediction(opt Options) (*PredictionResult, error) {
	opt = opt.normalize()
	r := opt.runner(func() *xgene.Machine { return xgene.New(silicon.NewChip(silicon.TTT, 1)) })
	cfg := core.DefaultConfig(workload.PredictionSuite(), []int{0, 4})
	cfg.Runs = opt.Runs
	cfg.Seed = opt.Seed
	results, err := r.Characterize(cfg)
	if err != nil {
		return nil, err
	}
	profiles := predict.CollectProfiles(workload.PredictionSuite(), opt.Seed+6)
	pipe := predict.DefaultPipeline()
	pipe.Seed = opt.Seed

	out := &PredictionResult{}
	d1, err := predict.BuildVminDataset(results, profiles, 0)
	if err != nil {
		return nil, err
	}
	if out.Case1, err = pipe.Run(d1); err != nil {
		return nil, err
	}
	d2, err := predict.BuildSeverityDataset(results, profiles, 0, core.PaperWeights, 100)
	if err != nil {
		return nil, err
	}
	if out.Case2, err = pipe.Run(d2); err != nil {
		return nil, err
	}
	d3, err := predict.BuildSeverityDataset(results, profiles, 4, core.PaperWeights, 90)
	if err != nil {
		return nil, err
	}
	if out.Case3, err = pipe.Run(d3); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig9Result is the measured trade-off curve plus its inputs.
type Fig9Result struct {
	// Assignment maps core → benchmark name, paper order.
	Assignment [silicon.NumCores]string
	// Requirements per PMD at full speed.
	Requirements []energy.PMDRequirement
	Points       []energy.TradeoffPoint
}

// Figure9 characterizes the §5 eight-benchmark workload placed on cores
// 0–7 of the TTT chip, derives per-PMD voltage requirements, and produces
// the trade-off curve.
func Figure9(opt Options) (*Fig9Result, error) {
	opt = opt.normalize()
	names := []string{"bwaves", "cactusADM", "dealII", "gromacs", "leslie3d", "mcf", "milc", "namd"}
	res := &Fig9Result{}
	r := opt.runner(func() *xgene.Machine { return xgene.New(silicon.NewChip(silicon.TTT, 1)) })

	// One benchmark pinned per core: an explicit campaign list rather than
	// the full cross product. CampaignSeed keys each sweep's RNG stream on
	// its own (benchmark, core) pair, so a single plain seed replaces the
	// old per-core seed offsets.
	grid := make([]core.Campaign, len(names))
	specs := make([]*workload.Spec, len(names))
	cores := make([]int, len(names))
	for coreID, name := range names {
		spec, err := workload.LookupName(name)
		if err != nil {
			return nil, err
		}
		res.Assignment[coreID] = name
		grid[coreID] = core.Campaign{Spec: spec, Core: coreID}
		specs[coreID] = spec
		cores[coreID] = coreID
	}
	cfg := core.DefaultConfig(specs, cores)
	cfg.Runs = opt.Runs
	cfg.Seed = opt.Seed
	results, err := r.CharacterizeCampaigns(cfg, grid)
	if err != nil {
		return nil, err
	}

	vmins := map[int]units.MilliVolts{}
	for _, c := range results {
		if c.Benchmark != res.Assignment[c.Core] {
			continue // cross product residue cannot occur, but stay strict
		}
		if v, ok := c.SafeVmin(); ok {
			vmins[c.Core] = v
		}
	}
	for coreID, name := range names {
		if _, ok := vmins[coreID]; !ok {
			return nil, fmt.Errorf("experiments: no Vmin for %s on core %d", name, coreID)
		}
	}
	res.Requirements = energy.RequirementsFromVmins(vmins, 760)
	pts, err := energy.TradeoffCurve(res.Requirements)
	if err != nil {
		return nil, err
	}
	res.Points = pts
	return res, nil
}

// GuardbandResult carries the §3.2 summary for all chips.
type GuardbandResult struct {
	Summaries []energy.GuardbandSummary
}

// Guardbands reduces a Fig. 4 result to the §3.2 per-chip numbers.
func Guardbands(fig4 *Fig4Result) (*GuardbandResult, error) {
	out := &GuardbandResult{}
	for _, chip := range fig4.Chips {
		var vmins []units.MilliVolts
		for _, bench := range fig4.Benchmarks {
			if v, ok := fig4.RobustVmin(chip, bench); ok {
				vmins = append(vmins, v)
			}
		}
		s, err := energy.Summarize(chip, vmins)
		if err != nil {
			return nil, err
		}
		out.Summaries = append(out.Summaries, s)
	}
	return out, nil
}

// HalfSpeedResult is the §3.2 1.2 GHz check.
type HalfSpeedResult struct {
	Chip string
	// Vmin per core (all 760 on TTT).
	Vmin [silicon.NumCores]units.MilliVolts
	// UnsafeSteps counts unsafe steps observed anywhere (0 expected).
	UnsafeSteps int
	// Savings is the §5 power saving of running everything at
	// 1.2 GHz / Vmin (69.9 % on TTT).
	Savings float64
}

// HalfSpeed characterizes one benchmark per core at 1.2 GHz on TTT.
func HalfSpeed(opt Options) (*HalfSpeedResult, error) {
	opt = opt.normalize()
	r := opt.runner(func() *xgene.Machine { return xgene.New(silicon.NewChip(silicon.TTT, 1)) })
	spec, err := workload.Lookup("mcf/ref")
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig([]*workload.Spec{spec}, []int{0, 1, 2, 3, 4, 5, 6, 7})
	cfg.Frequency = units.HalfFrequency
	cfg.StartVoltage = 800
	cfg.StopVoltage = 740
	cfg.Runs = opt.Runs
	cfg.Seed = opt.Seed
	results, err := r.Characterize(cfg)
	if err != nil {
		return nil, err
	}
	res := &HalfSpeedResult{Chip: "TTT"}
	worst := units.MilliVolts(0)
	for _, c := range results {
		v, ok := c.SafeVmin()
		if !ok {
			return nil, fmt.Errorf("experiments: no 1.2GHz Vmin on core %d", c.Core)
		}
		res.Vmin[c.Core] = v
		res.UnsafeSteps += len(c.UnsafeSteps())
		if v > worst {
			worst = v
		}
	}
	op := energy.Nominal()
	op.Voltage = worst
	for pmd := range op.Frequencies {
		op.Frequencies[pmd] = units.HalfFrequency
	}
	res.Savings = op.PowerSavings()
	return res, nil
}
