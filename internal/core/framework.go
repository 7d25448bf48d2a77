package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"xvolt/internal/edac"
	"xvolt/internal/obs"
	"xvolt/internal/randsrc"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/units"
	"xvolt/internal/watchdog"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// Config is the initialization-phase input (§2.2, Fig. 2): the benchmark
// list and the characterization setup (voltages, frequency, cores, run
// repetitions).
type Config struct {
	// Benchmarks to characterize.
	Benchmarks []*workload.Spec
	// Cores under characterization. Each (benchmark, core) pair is a
	// separate campaign.
	Cores []int
	// Frequency applied to the PMD of the core under test.
	Frequency units.MegaHertz
	// BackgroundFrequency is applied to all other PMDs — the "reliable
	// cores setup" of §2.2.1 pins them at 300 MHz.
	BackgroundFrequency units.MegaHertz
	// StartVoltage and StopVoltage bound the downward sweep (inclusive).
	StartVoltage, StopVoltage units.MilliVolts
	// Runs is the iterative-execution count per voltage step (10 in §3.1).
	Runs int
	// StopAfterCrashSteps ends a sweep early once this many consecutive
	// steps had every run crash; 0 disables early stop.
	StopAfterCrashSteps int
	// TargetTemperature is stabilized before each campaign (43 °C in §3.1).
	TargetTemperature units.Celsius
	// Seed drives the framework's run-to-run non-determinism.
	Seed int64
}

// DefaultConfig returns the paper's standard setup for a set of benchmarks
// and cores: 2.4 GHz under test, 300 MHz background, full sweep from
// nominal down to 840 mV, 10 runs per step, 43 °C.
func DefaultConfig(benchmarks []*workload.Spec, cores []int) Config {
	return Config{
		Benchmarks:          benchmarks,
		Cores:               cores,
		Frequency:           units.MaxFrequency,
		BackgroundFrequency: units.MinFrequency,
		StartVoltage:        units.NominalPMD,
		StopVoltage:         800,
		Runs:                10,
		StopAfterCrashSteps: 2,
		TargetTemperature:   43,
		Seed:                1,
	}
}

// Validate checks the configuration (initialization phase).
func (c *Config) Validate() error {
	if len(c.Benchmarks) == 0 {
		return errors.New("core: no benchmarks configured")
	}
	if len(c.Cores) == 0 {
		return errors.New("core: no cores configured")
	}
	for _, core := range c.Cores {
		if core < 0 || core >= silicon.NumCores {
			return fmt.Errorf("core: core %d out of range", core)
		}
	}
	if !units.ValidFrequency(c.Frequency) || !units.ValidFrequency(c.BackgroundFrequency) {
		return errors.New("core: invalid frequency")
	}
	if c.StartVoltage < c.StopVoltage {
		return errors.New("core: start voltage below stop voltage")
	}
	if !c.StartVoltage.OnGrid() || !c.StopVoltage.OnGrid() {
		return errors.New("core: sweep bounds off the 5mV grid")
	}
	if c.StartVoltage > xgene.MaxPMDVoltage || c.StopVoltage < xgene.MinPMDVoltage {
		return errors.New("core: sweep bounds outside regulator range")
	}
	if c.Runs < 1 {
		return errors.New("core: need at least one run per step")
	}
	return nil
}

// RunRecord is one raw execution-phase log entry: everything the framework
// observed about a single run, before any classification.
type RunRecord struct {
	Chip      string
	Benchmark string
	Input     string
	Core      int
	Frequency units.MegaHertz
	Voltage   units.MilliVolts
	RunIndex  int

	ExitCode       int
	OutputMismatch bool
	DeltaCE        uint64
	DeltaUE        uint64
	// ByLocation breaks the EDAC deltas down per protected structure —
	// the "exact location that the correctable errors occurred (e.g. the
	// cache level, the memory)" the paper's parser can report (§2.2).
	ByLocation    edac.Counts
	SystemCrashed bool
	Recovered     bool // watchdog had to power-cycle
}

// LocationSummary renders the per-structure error breakdown, e.g.
// "l2:3CE l3:1CE+1UE", or "" when no errors were recorded.
func (r RunRecord) LocationSummary() string {
	var parts []string
	for _, loc := range edac.Locations {
		ce := r.ByLocation.CE[loc]
		ue := r.ByLocation.UE[loc]
		switch {
		case ce > 0 && ue > 0:
			parts = append(parts, fmt.Sprintf("%s:%dCE+%dUE", loc, ce, ue))
		case ce > 0:
			parts = append(parts, fmt.Sprintf("%s:%dCE", loc, ce))
		case ue > 0:
			parts = append(parts, fmt.Sprintf("%s:%dUE", loc, ue))
		}
	}
	return strings.Join(parts, " ")
}

// Classify derives the Table 3 observation from the record's observables.
func (r RunRecord) Classify() Observation {
	return classify(r.SystemCrashed, r.ExitCode, r.OutputMismatch, r.DeltaCE, r.DeltaUE)
}

// classify is the one Table 3 classification of a run's observables,
// whether they sit in a RunRecord or in a sweep's run cell.
func classify(crashed bool, exitCode int, mismatch bool, ce, ue uint64) Observation {
	if crashed {
		// A crashed run reports nothing else reliably; EDAC noise logged
		// on the way down is still attributed (the parser keeps it).
		return Observation{SC: true, CE: ce > 0, UE: ue > 0}
	}
	return Observation{
		SDC: exitCode == 0 && mismatch,
		CE:  ce > 0,
		UE:  ue > 0,
		AC:  exitCode != 0,
	}
}

// Framework drives one machine through characterization campaigns, one
// locked machine call per run, and recovers every crash through its
// watchdog. Production sweeps and bisections run on the die instead
// (LadderRunner, FindVminOnDie); Framework keeps two roles: the
// sequential oracle the engine's and the die bisection's equivalence
// tests compare against, and xvolt-serve's campaign, which serves the
// live machine and watchdog.
type Framework struct {
	machine *xgene.Machine
	dog     *watchdog.Watchdog
	rng     *rand.Rand
	log     *trace.Log
	metrics fwMetrics
	reg     *obs.Registry
}

// New wires a framework to a machine with its own external watchdog.
func New(m *xgene.Machine) *Framework {
	return &Framework{
		machine: m,
		dog:     watchdog.New(m, 2),
	}
}

// SetTrace attaches a structured event log; pass nil to disable (the
// default). The log receives campaign/step/run/crash/recovery events.
// If a metrics registry is already attached, the log joins it.
func (f *Framework) SetTrace(l *trace.Log) {
	f.log = l
	if f.reg != nil {
		l.SetMetrics(f.reg)
	}
}

// Trace returns the attached event log (nil if none).
func (f *Framework) Trace() *trace.Log { return f.log }

// Machine returns the board under test.
func (f *Framework) Machine() *xgene.Machine { return f.machine }

// Watchdog returns the external monitor (for recovery statistics).
func (f *Framework) Watchdog() *watchdog.Watchdog { return f.dog }

// ensureAlive recovers the machine if it is hung, via the watchdog only
// (software cannot reach a crashed kernel).
func (f *Framework) ensureAlive() {
	for probes := 0; !f.machine.Responsive(); probes++ {
		if f.dog.Probe() == watchdog.Recovered {
			f.log.Emit(trace.Recovery, "watchdog power-cycled the board (recovery #%d)", f.dog.Recoveries())
		}
		if probes > 16 {
			// The watchdog threshold guarantees recovery long before this.
			panic("core: watchdog failed to recover the machine")
		}
	}
}

// applySetup programs the reliable-cores setup and the target voltage for
// one run: background PMDs slow, target PMD at the test frequency, rail at
// the step voltage.
func (f *Framework) applySetup(core int, cfg *Config, v units.MilliVolts) error {
	targetPMD := silicon.PMDOf(core)
	for pmd := 0; pmd < silicon.NumPMDs; pmd++ {
		freq := cfg.BackgroundFrequency
		if pmd == targetPMD {
			freq = cfg.Frequency
		}
		if err := f.machine.SetPMDFrequency(pmd, freq); err != nil {
			return err
		}
	}
	if err := f.machine.SetPMDVoltage(v); err != nil {
		return err
	}
	f.metrics.railMV.Set(float64(v))
	return nil
}

// restoreNominal returns the machine to nominal voltage so log data can be
// safely stored between runs (§2.2.1 "Safe Data Collection").
func (f *Framework) restoreNominal() {
	f.ensureAlive()
	// Ignore errors: at nominal settings these cannot fail on a live
	// machine, and a crash here is recovered on the next ensureAlive.
	_ = f.machine.SetPMDVoltage(units.NominalPMD)
	f.metrics.railMV.Set(float64(units.NominalPMD))
}

// campaignRand builds the RNG stream of one (benchmark, core) campaign
// on a chip: the seed is derived from the campaign's identity
// (CampaignSeed), not from a position in a shared stream, so outcomes
// are identical whether the campaign runs sequentially, in a
// LadderRunner worker, in isolation, or after a checkpoint resume.
func campaignRand(chip string, spec *workload.Spec, core int, cfg *Config) *rand.Rand {
	return randsrc.New(CampaignSeed(cfg.Seed, chip, spec.Name, spec.Input, core))
}

// Execute runs the execution phase for the whole configuration and returns
// the raw per-run records. Every campaign draws from its own CampaignSeed-derived
// RNG stream, so the output matches a LadderRunner over the same Config
// exactly.
func (f *Framework) Execute(cfg Config) ([]RunRecord, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f.ensureAlive()
	f.machine.StabilizeTemperature(cfg.TargetTemperature)

	var out []RunRecord
	for _, spec := range cfg.Benchmarks {
		for _, core := range cfg.Cores {
			f.rng = campaignRand(f.machine.Chip().Name, spec, core, &cfg)
			recs, err := f.runCampaign(spec, core, &cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, recs...)
		}
	}
	return out, nil
}

// runCampaign sweeps one (benchmark, core) pair downward.
func (f *Framework) runCampaign(spec *workload.Spec, core int, cfg *Config) ([]RunRecord, error) {
	f.log.Emit(trace.CampaignStart, "%s on %s core %d at %v", spec.ID(), f.machine.Chip().Name, core, cfg.Frequency)
	defer f.log.Emit(trace.CampaignEnd, "%s on core %d", spec.ID(), core)
	span := obs.StartSpan(f.metrics.campaignSeconds)
	defer func() {
		span.End()
		f.metrics.campaigns.Inc()
	}()
	var out []RunRecord
	consecutiveAllCrash := 0
	for v := cfg.StartVoltage; v >= cfg.StopVoltage; v -= units.VoltageStep {
		f.log.Emit(trace.StepStart, "%s core %d step %v", spec.ID(), core, v)
		f.metrics.steps.Inc()
		crashesThisStep := 0
		for run := 0; run < cfg.Runs; run++ {
			rec, err := f.oneRun(spec, core, cfg, v, run)
			if err != nil {
				return nil, err
			}
			if rec.SystemCrashed {
				crashesThisStep++
			}
			out = append(out, rec)
		}
		if cfg.StopAfterCrashSteps > 0 {
			if crashesThisStep == cfg.Runs {
				consecutiveAllCrash++
				if consecutiveAllCrash >= cfg.StopAfterCrashSteps {
					break
				}
			} else {
				consecutiveAllCrash = 0
			}
		}
	}
	return out, nil
}

// oneRun performs a single characterization run at one voltage step.
func (f *Framework) oneRun(spec *workload.Spec, core int, cfg *Config, v units.MilliVolts, runIdx int) (RunRecord, error) {
	f.ensureAlive()
	if err := f.applySetup(core, cfg, v); err != nil {
		return RunRecord{}, err
	}
	before := f.machine.EDAC().Snapshot()

	res, err := f.machine.RunOnCore(core, spec, f.rng)
	rec := RunRecord{
		Chip:      f.machine.Chip().Name,
		Benchmark: spec.Name,
		Input:     spec.Input,
		Core:      core,
		Frequency: cfg.Frequency,
		Voltage:   v,
		RunIndex:  runIdx,
	}
	switch {
	case errors.Is(err, xgene.ErrUnresponsive):
		// The machine died between setup and launch (possible after a
		// concurrent crash); treat as a system crash.
		rec.SystemCrashed = true
	case err != nil:
		return RunRecord{}, err
	case !res.SystemUp:
		rec.SystemCrashed = true
		rec.ExitCode = res.ExitCode
	default:
		rec.ExitCode = res.ExitCode
		rec.OutputMismatch = res.ExitCode == 0 && res.Output != spec.Golden()
		delta := f.machine.EDAC().Snapshot().Sub(before)
		rec.DeltaCE = delta.TotalCE()
		rec.DeltaUE = delta.TotalUE()
		rec.ByLocation = delta
	}
	if rec.SystemCrashed {
		// EDAC counters are lost with the crash: the machine model
		// reports ECC noise pre-crash through the EDAC driver, which the
		// reboot wipes — read it before recovery.
		delta := f.machine.EDAC().Snapshot().Sub(before)
		rec.DeltaCE = delta.TotalCE()
		rec.DeltaUE = delta.TotalUE()
		rec.ByLocation = delta
		f.log.Emit(trace.SystemCrash, "%s core %d at %v: system hang", spec.ID(), core, v)
		f.ensureAlive()
		rec.Recovered = true
	}
	obsv := rec.Classify()
	f.metrics.countRun(obsv)
	f.log.Emit(trace.RunDone, "%s core %d %v run %d -> %s", spec.ID(), core, v, runIdx, obsv)
	// Safe data collection: restore nominal voltage before storing logs.
	f.restoreNominal()
	return rec, nil
}

// Parse is the parsing phase: it folds raw run records into per-
// (chip, benchmark, input, core, frequency) campaign results with one
// tally per voltage step, sorted for deterministic output.
func Parse(records []RunRecord) []*CampaignResult {
	p := newParser(0)
	// Record streams arrive grouped by campaign and voltage step (the
	// engines' canonical order), so the common case is "same campaign and
	// step as the previous record" — track both and fall back to the
	// lookups only on transitions. Grouping is by value equality, so
	// out-of-order streams still parse identically, just slower.
	var (
		curID    campaignID
		curSteps *stepTable
		curVolt  units.MilliVolts
		curTally *Tally
	)
	for i := range records {
		r := &records[i]
		id := campaignID{r.Chip, r.Benchmark, r.Input, r.Core, r.Frequency}
		if curSteps == nil || id != curID {
			curID, curSteps, curTally = id, p.table(id), nil
		}
		if curTally == nil || r.Voltage != curVolt {
			curVolt, curTally = r.Voltage, curSteps.tally(r.Voltage)
		}
		curTally.Add(r.Classify())
	}
	return p.results()
}

// campaignID names a campaign in its records and in its parsed result:
// the parsing phase's grouping key.
type campaignID struct {
	chip, bench, input string
	core               int
	freq               units.MegaHertz
}

// parser collects per-campaign step tables, from records (Parse) or
// from the batch engine's sweep tallies (LadderRunner.Characterize).
type parser struct {
	byID map[campaignID]*stepTable
}

// newParser returns an empty parser with room for n campaigns.
func newParser(n int) parser { return parser{byID: make(map[campaignID]*stepTable, n)} }

// table returns id's step table, adding an empty one if needed.
func (p parser) table(id campaignID) *stepTable {
	t, ok := p.byID[id]
	if !ok {
		t = &stepTable{}
		p.byID[id] = t
	}
	return t
}

// results renders the tables as campaign results: campaigns sorted by
// (chip, benchmark, input, core, frequency), steps by descending voltage.
func (p parser) results() []*CampaignResult {
	if len(p.byID) == 0 {
		return nil
	}
	ids := make([]campaignID, 0, len(p.byID))
	for id := range p.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		ka, kb := ids[a], ids[b]
		if ka.chip != kb.chip {
			return ka.chip < kb.chip
		}
		if ka.bench != kb.bench {
			return ka.bench < kb.bench
		}
		if ka.input != kb.input {
			return ka.input < kb.input
		}
		if ka.core != kb.core {
			return ka.core < kb.core
		}
		return ka.freq < kb.freq
	})
	out := make([]*CampaignResult, len(ids))
	for i, id := range ids {
		t := p.byID[id]
		steps := t.steps
		if t.index != nil {
			// Only a table whose voltages arrived out of order needs
			// sorting; without an index they already descend.
			sort.Slice(steps, func(a, b int) bool { return steps[a].Voltage > steps[b].Voltage })
		}
		out[i] = &CampaignResult{
			Chip:      id.chip,
			Benchmark: id.bench,
			Input:     id.input,
			Core:      id.core,
			Frequency: id.freq,
			Steps:     steps,
		}
	}
	return out
}

// stepTable collects one campaign's per-voltage tallies. While voltages
// arrive strictly descending (a sweep's own order) a new voltage is
// always a new step and no index is kept; the first voltage out of that
// order builds the index. A map of tallies per campaign cost 4–6 % more
// report CPU (EXPERIMENTS.md "SDC replay at kernel speed").
type stepTable struct {
	steps []StepResult
	index map[units.MilliVolts]int // voltage → steps position, once out of order
}

// tally returns v's step tally, adding an empty step if needed. The
// pointer is valid until the table's next call.
func (t *stepTable) tally(v units.MilliVolts) *Tally {
	n := len(t.steps)
	if t.index == nil {
		if n == 0 || v < t.steps[n-1].Voltage {
			t.steps = append(t.steps, StepResult{Voltage: v})
			return &t.steps[n].Tally
		}
		t.index = make(map[units.MilliVolts]int, n+1)
		for i := range t.steps {
			t.index[t.steps[i].Voltage] = i
		}
	}
	i, ok := t.index[v]
	if !ok {
		i = n
		t.index[v] = i
		t.steps = append(t.steps, StepResult{Voltage: v})
	}
	return &t.steps[i].Tally
}

// Characterize runs all three phases end to end and returns the parsed
// campaign results.
func (f *Framework) Characterize(cfg Config) ([]*CampaignResult, error) {
	recs, err := f.Execute(cfg)
	if err != nil {
		return nil, err
	}
	return Parse(recs), nil
}
