package core

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"xvolt/internal/edac"
	"xvolt/internal/obs"
	"xvolt/internal/randsrc"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// Campaign is one (benchmark, core) cell of a characterization grid.
type Campaign struct {
	Spec *workload.Spec
	Core int
}

// Grid expands the configuration's (benchmark, core) cross product in the
// canonical order — benchmarks outer, cores inner — which is both the
// order Framework.Execute walks and the order LadderRunner's output
// preserves, so sequential and parallel raw logs are identical.
func (c *Config) Grid() []Campaign {
	out := make([]Campaign, 0, len(c.Benchmarks)*len(c.Cores))
	for _, spec := range c.Benchmarks {
		for _, core := range c.Cores {
			out = append(out, Campaign{Spec: spec, Core: core})
		}
	}
	return out
}

// LadderRunner is the parallel campaign engine: it shards a
// configuration's (benchmark, core) grid across a pool of workers, each
// with a pooled board of its own. Instead of one fully locked machine
// call per (benchmark, core, voltage, run) grid cell, each worker takes a
// single state snapshot of its board per campaign and samples the whole
// voltage ladder from it (xgene.SampleCell), tallying each step as it
// goes into a compact sweep. Three properties make the output
// byte-identical to the sequential Framework at any worker count:
//
//   - every campaign draws from its own CampaignSeed-derived stream, and a
//     sampled cell consumes that stream in exactly RunOnCore's draw order;
//   - cells in the clean region — PMD rail at or above the
//     protection-adjusted safe floor — are synthesized without consuming
//     any draws, because the sampled path would consume none either
//     (silicon.EffectiveSafeVmin's contract);
//   - the early-exit rule (StopAfterCrashSteps consecutive all-crash
//     steps) is evaluated on the same per-step crash counts the
//     sequential sweep sees.
//
// A LadderRunner is safe for concurrent Execute calls; each call spins up
// its own workers over pooled boards (recycled between calls rather than
// re-fabricated — a Reset is a power cycle, which lands on the same
// power-on state a fresh factory board boots into).
type LadderRunner struct {
	pool        *xgene.Pool
	parallelism int

	log     *trace.Log
	reg     *obs.Registry
	metrics runnerMetrics

	mu         sync.Mutex
	recoveries int
}

// runnerMetrics are the worker pool's exported instruments; all fields
// are nil (inert) until SetMetrics attaches a registry.
type runnerMetrics struct {
	workers *obs.Gauge   // current pool size
	busy    *obs.Gauge   // workers running a campaign right now
	queued  *obs.Gauge   // campaigns accepted but not yet started
	done    *obs.Counter // campaigns completed by the engine
	latency *obs.HDRVec  // campaign wall time, by worker index
}

// NewLadderRunner builds the engine over a machine factory (use
// xgene.Machine.Clone to replicate a configured prototype). Boards are
// drawn from a pool and recycled across Execute calls rather than
// refabricated per worker. A nil factory makes every Execute fail.
func NewLadderRunner(newMachine func() *xgene.Machine) *LadderRunner {
	if newMachine == nil {
		return &LadderRunner{}
	}
	return &LadderRunner{pool: xgene.NewPool(newMachine)}
}

// SetParallelism fixes the worker count. Zero or negative (the default)
// means GOMAXPROCS; 1 degenerates to a sequential sweep with identical
// results.
func (r *LadderRunner) SetParallelism(n int) { r.parallelism = n }

func (r *LadderRunner) workerCount(n int) int {
	w := r.parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// SetMetrics registers the engine's worker-pool telemetry on reg — pool
// size, busy workers, queued campaigns, completed campaigns and the
// per-worker campaign latency summary.
func (r *LadderRunner) SetMetrics(reg *obs.Registry) {
	r.reg = reg
	r.metrics = runnerMetrics{
		workers: reg.Gauge("xvolt_runner_workers",
			"Campaign-engine worker pool size across active Execute calls."),
		busy: reg.Gauge("xvolt_runner_busy_workers",
			"Workers currently executing a campaign."),
		queued: reg.Gauge("xvolt_runner_queued_campaigns",
			"Campaigns accepted by the engine but not yet started."),
		done: reg.Counter("xvolt_runner_campaigns_done_total",
			"Campaigns the engine completed."),
		latency: reg.HDRVec("xvolt_runner_campaign_seconds",
			"Campaign wall time per (benchmark, core) sweep, by worker index.", obs.HDROpts{}, "worker"),
	}
}

// SetTrace attaches a shared structured event log. With a log attached
// the engine emits the Framework's full event schema — campaign, step,
// run, crash and recovery — so downstream JSONL consumers see the
// sequential engine's stream shape; with none attached the hot loop
// pays nothing for tracing.
func (r *LadderRunner) SetTrace(l *trace.Log) { r.log = l }

// Recoveries reports the watchdog power cycles the sampled crashes would
// have required — exactly one per system-crash record, which is what the
// sequential engine's watchdog performs.
func (r *LadderRunner) Recoveries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recoveries
}

// Execute runs the configuration grid and returns the raw per-run records
// in canonical grid order — the same stream Framework.Execute produces.
func (r *LadderRunner) Execute(cfg Config) ([]RunRecord, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return r.executeFlat(cfg, cfg.Grid())
}

// checkCampaigns validates the configuration and every campaign of an
// explicit list.
func checkCampaigns(cfg Config, grid []Campaign) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for i, c := range grid {
		if c.Spec == nil {
			return fmt.Errorf("core: campaign %d has no benchmark", i)
		}
		if c.Core < 0 || c.Core >= silicon.NumCores {
			return fmt.Errorf("core: campaign %d core %d out of range", i, c.Core)
		}
	}
	return nil
}

// Characterize runs the configuration grid through the execution and
// parsing phases: CharacterizeCampaigns over cfg.Grid().
func (r *LadderRunner) Characterize(cfg Config) ([]*CampaignResult, error) {
	return r.CharacterizeCampaigns(cfg, cfg.Grid())
}

// CharacterizeCampaigns runs an explicit campaign list through the
// execution and parsing phases. The sweeps' step tallies are the parsing
// phase's output already, so no run record is built: each campaign's
// result gets a fresh copy of its sweep's steps, and a campaign the list
// names twice is merged step by step, as Parse merges its records.
func (r *LadderRunner) CharacterizeCampaigns(cfg Config, grid []Campaign) ([]*CampaignResult, error) {
	if err := checkCampaigns(cfg, grid); err != nil {
		return nil, err
	}
	sweeps, err := r.executeGrid(cfg, grid, nil)
	if err != nil {
		return nil, err
	}
	p := newParser(len(sweeps))
	for _, s := range sweeps {
		t := p.table(s.id)
		if t.steps == nil {
			t.steps = make([]StepResult, len(s.steps))
			copy(t.steps, s.steps)
			continue
		}
		for _, st := range s.steps {
			t.tally(st.Voltage).merge(st.Tally)
		}
	}
	return p.results(), nil
}

// executeFlat runs a grid and rebuilds its campaigns' records in grid
// order.
func (r *LadderRunner) executeFlat(cfg Config, grid []Campaign) ([]RunRecord, error) {
	sweeps, err := r.executeGrid(cfg, grid, nil)
	if err != nil || len(sweeps) == 0 {
		return nil, err
	}
	n := 0
	for _, s := range sweeps {
		n += s.runs()
	}
	all := make([]RunRecord, 0, n)
	for _, s := range sweeps {
		all = s.appendRecords(all)
	}
	return all, nil
}

// executeGrid is the worker pool. Sweeps land in a per-campaign slot
// table indexed by grid position, so assembly order never depends on
// which worker finished first. Each sweep is read-only: it may be shared
// with the campaign memo. Campaigns are accounted in grid order
// (gridAccounts), so the event stream and the recovery numbering do not
// depend on the worker count either. A non-nil done is called with each
// campaign as it is accounted; its first error stops the grid — no
// campaign starts after it — and is returned.
func (r *LadderRunner) executeGrid(cfg Config, grid []Campaign, done func(idx int, s *sweep) error) ([]*sweep, error) {
	if len(grid) == 0 {
		return nil, nil
	}
	if r.pool == nil {
		return nil, errors.New("core: runner has no machine factory")
	}
	if r.reg != nil && r.log != nil {
		r.log.SetMetrics(r.reg)
	}
	workers := r.workerCount(len(grid))
	r.metrics.workers.Add(float64(workers))
	defer r.metrics.workers.Add(-float64(workers))
	r.metrics.queued.Add(float64(len(grid)))

	jobs := make(chan int)
	out := make([]*sweep, len(grid))
	acct := &gridAccounts{r: r, grid: grid, out: out, cfg: &cfg, done: done, slots: make([]finishedSlot, len(grid))}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			wm := r.pool.Get()
			defer r.pool.Put(wm)
			bs := wm.BatchState()
			label := strconv.Itoa(worker)
			sc := new(sweepScratch) // reused across the worker's campaigns
			for idx := range jobs {
				r.metrics.queued.Dec()
				camp := grid[idx]
				r.metrics.busy.Inc()
				span := obs.StartSpan(r.metrics.latency.With(label))
				s, hit := r.oneCampaign(wm, bs, camp.Spec, camp.Core, &cfg, sc)
				out[idx] = s
				span.End()
				r.metrics.busy.Dec()
				r.metrics.done.Inc()
				acct.finish(idx, hit)
			}
		}(w)
	}
	for i := range grid {
		if acct.stopped.Load() {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	r.mu.Lock()
	r.recoveries += acct.crashes
	r.mu.Unlock()
	if acct.err != nil {
		return nil, acct.err
	}
	return out, nil
}

// gridAccounts accounts a study's campaigns in grid order. A worker
// parks each finished slot; when no other worker is draining, it drains
// every ready slot in order, numbering watchdog recoveries across the
// whole study. The event stream, seq included, is then the same at any
// worker count.
type gridAccounts struct {
	r    *LadderRunner
	grid []Campaign
	out  []*sweep
	cfg  *Config
	done func(idx int, s *sweep) error // nil: nothing to call

	mu       sync.Mutex
	slots    []finishedSlot
	next     int   // lowest slot not yet accounted
	draining bool  // a worker is accounting; it rechecks slots before it stops
	crashes  int   // owned by the draining worker
	err      error // done's first error; owned by the draining worker

	stopped atomic.Bool // set with err: no further campaign starts
}

// finishedSlot is what a finished campaign leaves for accounting besides
// its sweep.
type finishedSlot struct {
	ready bool
	memo  bool
}

// finish parks slot idx, whose sweep is already in out, and accounts
// every campaign now ready in grid order unless another worker is doing
// so. The lock is not held while a campaign is accounted.
func (g *gridAccounts) finish(idx int, memo bool) {
	g.mu.Lock()
	g.slots[idx] = finishedSlot{ready: true, memo: memo}
	if g.draining {
		g.mu.Unlock()
		return
	}
	g.draining = true
	for g.next < len(g.slots) && g.slots[g.next].ready {
		i := g.next
		g.next++
		s, c := g.slots[i], g.grid[i]
		g.mu.Unlock()
		g.r.accountCampaign(g.out[i], c.Spec, g.cfg, s.memo, &g.crashes)
		if g.done != nil && g.err == nil {
			if g.err = g.done(i, g.out[i]); g.err != nil {
				g.stopped.Store(true)
			}
		}
		g.mu.Lock()
	}
	g.draining = false
	g.mu.Unlock()
}

// oneCampaign resolves one grid cell: a memo hit reuses the stored
// sweep, a miss sweeps the ladder in the worker's scratch and stores the
// result. Either way the returned sweep is read-only shared state; hit
// reports a memo hit.
func (r *LadderRunner) oneCampaign(wm *xgene.Machine, bs xgene.BatchState, spec *workload.Spec, coreID int, cfg *Config, sc *sweepScratch) (s *sweep, hit bool) {
	key := newMemoKey(bs, spec, coreID, cfg)
	if s, hit = lookupCampaign(key); !hit {
		s = r.runLadder(wm, bs, spec, coreID, cfg, sc)
		storeCampaign(key, s)
	}
	return s, hit
}

// sweepScratch is a worker's reusable sweep state. Nothing in it carries
// from one sweep to the next: runLadder restages the cells and begins
// the replay afresh, so a fold-only program is recorded again by every
// sweep that scores an SDC cell.
type sweepScratch struct {
	cells  []runCell        // the sweep's staged run cells
	replay workload.Replay  // scores the sweep's SDC cells
	inj    workload.Bitflip // rescheduled for every SDC cell
}

// accountCampaign is the one place a campaign's crashes are counted as
// watchdog recoveries and its trace is emitted: with a log attached,
// the sweep's records become the event sequence of the sequential
// sweep — campaign, step, run, crash and recovery — marked "(memo)"
// when the sweep came from the memo.
func (r *LadderRunner) accountCampaign(s *sweep, spec *workload.Spec, cfg *Config, memo bool, crashes *int) {
	if r.log == nil {
		for i := range s.steps {
			*crashes += s.steps[i].Tally.SC
		}
		return
	}
	mark := ""
	if memo {
		mark = " (memo)"
	}
	coreID := s.id.core
	r.log.Emit(trace.CampaignStart, "%s on %s core %d at %v%s", spec.ID(), s.id.chip, coreID, cfg.Frequency, mark)
	s.eachRecord(func(rec *RunRecord) {
		if rec.RunIndex == 0 {
			r.log.Emit(trace.StepStart, "%s core %d step %v", spec.ID(), coreID, rec.Voltage)
		}
		if rec.SystemCrashed {
			*crashes++
			r.log.Emit(trace.SystemCrash, "%s core %d at %v: system hang", spec.ID(), coreID, rec.Voltage)
			r.log.Emit(trace.Recovery, "watchdog power-cycled the board (recovery #%d)", *crashes)
		}
		r.log.Emit(trace.RunDone, "%s core %d %v run %d -> %s", spec.ID(), coreID, rec.Voltage, rec.RunIndex, rec.Classify())
	})
	r.log.Emit(trace.CampaignEnd, "%s on core %d", spec.ID(), coreID)
}

// sweep is one campaign's ladder in the form the engine keeps it: the
// campaign's identity once, one Table 3 tally per voltage step — the
// parsing phase's reduction (§3.4.1), made while sweeping — and a cell
// per run for the steps where some run had an effect. A step whose
// tally is all clean keeps no run data, since each of its runs logs the
// zero-effect record, whether the step was synthesized or sampled. A
// sweep is read-only once built: the campaign memo shares it.
type sweep struct {
	id    campaignID
	steps []StepResult // descending voltage, one per step, each N = Config.Runs
	cells []runCell    // N cells per step with any effect, in step order
}

// runCell is one sampled run's observables: all a RunRecord holds
// beyond the campaign, the step voltage and the run index. It holds no
// pointer, so the memo's cells cost the garbage collector no scan.
type runCell struct {
	counts   edac.Counts // the run's EDAC delta; DeltaCE/DeltaUE are its totals
	exitCode int32
	mismatch bool // output differed from the golden one
	crashed  bool // system crash: the watchdog power-cycled the board
}

func (c *runCell) observation() Observation {
	return classify(c.crashed, int(c.exitCode), c.mismatch, c.counts.TotalCE(), c.counts.TotalUE())
}

// runs counts the sweep's runs: its records once rebuilt.
func (s *sweep) runs() int {
	n := 0
	for i := range s.steps {
		n += s.steps[i].Tally.N
	}
	return n
}

// eachRecord calls f with the sweep's run records in run order, the
// stream Framework.Execute logs for the campaign. rec is reused: f must
// not keep it.
func (s *sweep) eachRecord(f func(rec *RunRecord)) {
	proto := RunRecord{
		Chip:      s.id.chip,
		Benchmark: s.id.bench,
		Input:     s.id.input,
		Core:      s.id.core,
		Frequency: s.id.freq,
	}
	var rec RunRecord
	cells := s.cells
	for _, st := range s.steps {
		proto.Voltage = st.Voltage
		clean := st.Tally.AllClean()
		for run := 0; run < st.Tally.N; run++ {
			rec = proto
			rec.RunIndex = run
			if !clean {
				c := &cells[run]
				rec.ExitCode = int(c.exitCode)
				rec.OutputMismatch = c.mismatch
				rec.DeltaCE = c.counts.TotalCE()
				rec.DeltaUE = c.counts.TotalUE()
				rec.ByLocation = c.counts
				rec.SystemCrashed = c.crashed
				rec.Recovered = c.crashed
			}
			f(&rec)
		}
		if !clean {
			cells = cells[st.Tally.N:]
		}
	}
}

// appendRecords appends the sweep's run records to dst.
func (s *sweep) appendRecords(dst []RunRecord) []RunRecord {
	s.eachRecord(func(rec *RunRecord) { dst = append(dst, *rec) })
	return dst
}

// runLadder sweeps one (benchmark, core) campaign downward against the
// worker board's state snapshot, tallying each step as it goes. The
// cells of a sampled step are staged in the scratch buffer; a step with
// no effect drops them again. The sweep gets an exact-size copy of what
// is left, and the grown buffer stays for the next campaign. Each SDC
// cell is scored by the scratch replay, begun for this sweep.
//
//xvolt:hotpath inner sweep loop; allocation profile pinned by BENCH_baseline.json
func (r *LadderRunner) runLadder(wm *xgene.Machine, bs xgene.BatchState, spec *workload.Spec, coreID int, cfg *Config, sc *sweepScratch) *sweep {
	rng := randsrc.New(CampaignSeed(cfg.Seed, bs.Chip.Name, spec.Name, spec.Input, coreID))
	margins := wm.Assess(coreID, spec, units.RegimeOf(cfg.Frequency))
	cleanAbove := silicon.EffectiveSafeVmin(margins, bs.Prot)
	golden := spec.Golden()

	s := &sweep{
		id:    campaignID{bs.Chip.Name, spec.Name, spec.Input, coreID, cfg.Frequency},
		steps: make([]StepResult, 0, int((cfg.StartVoltage-cfg.StopVoltage)/units.VoltageStep)+1),
	}
	cells := sc.cells[:0]
	sc.replay.Begin(spec)
	consecutiveAllCrash := 0
	for v := cfg.StartVoltage; v >= cfg.StopVoltage; v -= units.VoltageStep {
		if v >= cleanAbove {
			// Clean region: the sampled path would return zero effects
			// without consuming a single draw, so the step is tallied
			// clean outright. A clean step resets the early-exit crash
			// counter, same as a sampled step with zero crashes.
			s.steps = append(s.steps, StepResult{Voltage: v, Tally: Tally{N: cfg.Runs}})
			consecutiveAllCrash = 0
			continue
		}
		var tally Tally
		staged := len(cells)
		for run := 0; run < cfg.Runs; run++ {
			cell := xgene.SampleCell(rng, bs, margins, v)
			c := runCell{counts: cell.Delta}
			switch {
			case cell.Effects.SC:
				c.crashed = true
				c.exitCode = -1
			case cell.Effects.AC:
				c.exitCode = 134
			case cell.Effects.SDC:
				sc.inj.Reset(rng, cell.Effects.SDCBits)
				c.mismatch = sc.replay.Score(&sc.inj) != golden
			}
			tally.Add(c.observation())
			cells = append(cells, c)
		}
		if tally.AllClean() {
			cells = cells[:staged]
		}
		s.steps = append(s.steps, StepResult{Voltage: v, Tally: tally})
		if cfg.StopAfterCrashSteps > 0 {
			if tally.SC == cfg.Runs {
				consecutiveAllCrash++
				if consecutiveAllCrash >= cfg.StopAfterCrashSteps {
					break
				}
			} else {
				consecutiveAllCrash = 0
			}
		}
	}
	if len(cells) > 0 {
		s.cells = make([]runCell, len(cells))
		copy(s.cells, cells)
	}
	sc.cells = cells
	return s
}
