package core

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"xvolt/internal/obs"
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
// voltage ladder from it (xgene.SampleCell), writing records into pooled
// arenas. Three properties make the output byte-identical to the
// sequential Framework at any worker count:
//
//   - every campaign draws from its own CampaignSeed-derived stream, and a
//     sampled cell consumes that stream in exactly RunOnCore's draw order;
//   - cells in the clean region — PMD rail at or above the
//     protection-adjusted safe floor, with clean SoC/DRAM state — are
//     synthesized without consuming any draws, because the sampled path
//     would consume none either (silicon.EffectiveSafeVmin's contract);
//   - the early-exit rule (StopAfterCrashSteps consecutive all-crash
//     steps) is evaluated on the same per-step crash counts the
//     sequential sweep sees.
//
// The engine's determinism domain: machine factories whose boards start
// with clean LadderState (nominal SoC rail, refresh at or below the leak
// threshold). Outside that domain board state is not partition-stable
// across workers under any engine.
//
// A LadderRunner is safe for concurrent Execute calls; each call spins up
// its own workers over pooled boards (recycled between calls rather than
// re-fabricated — a Recycle is a power cycle, which lands on the same
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

// Trace returns the attached event log (nil if none).
func (r *LadderRunner) Trace() *trace.Log { return r.log }

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

// ExecuteCampaigns runs an explicit campaign list (one benchmark pinned
// per core, Figure 9 style); records come back in list order.
func (r *LadderRunner) ExecuteCampaigns(cfg Config, grid []Campaign) ([]RunRecord, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i, c := range grid {
		if c.Spec == nil {
			return nil, fmt.Errorf("core: campaign %d has no benchmark", i)
		}
		if c.Core < 0 || c.Core >= silicon.NumCores {
			return nil, fmt.Errorf("core: campaign %d core %d out of range", i, c.Core)
		}
	}
	return r.executeFlat(cfg, grid)
}

// Characterize runs the execution and parsing phases end to end. It
// parses the per-campaign slots in place: the flat stream Execute would
// return is never assembled.
func (r *LadderRunner) Characterize(cfg Config) ([]*CampaignResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slots, err := r.executeGrid(cfg, cfg.Grid(), nil)
	if err != nil {
		return nil, err
	}
	return parseSlots(slots), nil
}

// recordArenaPool recycles per-campaign record buffers across campaigns
// and Execute calls (the regress.Fit workspace pattern). Buffers are
// staged per grid slot and returned after assembly into the exact-size
// output slice.
var recordArenaPool = sync.Pool{
	New: func() any {
		b := make([]RunRecord, 0, 512)
		return &b
	},
}

// executeFlat runs a grid and concatenates its campaigns' records in grid
// order.
func (r *LadderRunner) executeFlat(cfg Config, grid []Campaign) ([]RunRecord, error) {
	out, err := r.executeGrid(cfg, grid, nil)
	if err != nil || len(out) == 0 {
		return nil, err
	}
	n := 0
	for _, recs := range out {
		n += len(recs)
	}
	all := make([]RunRecord, 0, n)
	for _, recs := range out {
		all = append(all, recs...)
	}
	return all, nil
}

// executeGrid is the worker pool. Results land in a per-campaign slot
// table indexed by grid position, so assembly order never depends on
// which worker finished first. Each slot is read-only: it may be shared
// with the campaign memo. Campaigns are accounted in grid order
// (gridAccounts), so the event stream and the recovery numbering do not
// depend on the worker count either. A non-nil done is called with each
// campaign as it is accounted; its first error stops the grid — no
// campaign starts after it — and is returned.
func (r *LadderRunner) executeGrid(cfg Config, grid []Campaign, done func(idx int, recs []RunRecord) error) ([][]RunRecord, error) {
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
	out := make([][]RunRecord, len(grid))
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
			for idx := range jobs {
				r.metrics.queued.Dec()
				camp := grid[idx]
				r.metrics.busy.Inc()
				span := obs.StartSpan(r.metrics.latency.With(label))
				recs, hit := r.oneCampaign(wm, bs, camp.Spec, camp.Core, &cfg)
				out[idx] = recs
				span.End()
				r.metrics.busy.Dec()
				r.metrics.done.Inc()
				acct.finish(idx, bs.Chip.Name, hit)
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
	out  [][]RunRecord
	cfg  *Config
	done func(idx int, recs []RunRecord) error // nil: nothing to call

	mu       sync.Mutex
	slots    []finishedSlot
	next     int   // lowest slot not yet accounted
	draining bool  // a worker is accounting; it rechecks slots before it stops
	crashes  int   // owned by the draining worker
	err      error // done's first error; owned by the draining worker

	stopped atomic.Bool // set with err: no further campaign starts
}

// finishedSlot is what a finished campaign leaves for accounting besides
// its records.
type finishedSlot struct {
	ready bool
	memo  bool
	chip  string
}

// finish parks slot idx, whose records are already in out, and accounts
// every campaign now ready in grid order unless another worker is doing
// so. The lock is not held while a campaign is accounted.
func (g *gridAccounts) finish(idx int, chip string, memo bool) {
	g.mu.Lock()
	g.slots[idx] = finishedSlot{ready: true, memo: memo, chip: chip}
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
		g.r.accountCampaign(g.out[i], s.chip, c.Spec, c.Core, g.cfg, s.memo, &g.crashes)
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
// stream, a miss sweeps the ladder into a pooled arena and stores a
// compact copy. Either way the returned slice is read-only shared state;
// hit reports a memo hit.
func (r *LadderRunner) oneCampaign(wm *xgene.Machine, bs xgene.BatchState, spec *workload.Spec, coreID int, cfg *Config) (recs []RunRecord, hit bool) {
	key := newMemoKey(bs, spec, coreID, cfg)
	recs, hit = lookupCampaign(key)
	if !hit {
		bufp := recordArenaPool.Get().(*[]RunRecord)
		buf := r.runLadder(wm, bs, spec, coreID, cfg, (*bufp)[:0])
		recs = make([]RunRecord, len(buf))
		copy(recs, buf)
		*bufp = buf
		recordArenaPool.Put(bufp)
		storeCampaign(key, recs)
	}
	return recs, hit
}

// accountCampaign is the one place a campaign's crashes are counted as
// watchdog recoveries and its trace is emitted: with a log attached,
// the record stream becomes the event sequence of the sequential
// sweep — campaign, step, run, crash and recovery — marked "(memo)"
// when the records came from the memo.
func (r *LadderRunner) accountCampaign(recs []RunRecord, chip string, spec *workload.Spec, coreID int, cfg *Config, memo bool, crashes *int) {
	if r.log == nil {
		for i := range recs {
			if recs[i].SystemCrashed {
				*crashes++
			}
		}
		return
	}
	mark := ""
	if memo {
		mark = " (memo)"
	}
	r.log.Emit(trace.CampaignStart, "%s on %s core %d at %v%s", spec.ID(), chip, coreID, cfg.Frequency, mark)
	for i := range recs {
		rec := &recs[i]
		if i == 0 || rec.Voltage != recs[i-1].Voltage {
			r.log.Emit(trace.StepStart, "%s core %d step %v", spec.ID(), coreID, rec.Voltage)
		}
		if rec.SystemCrashed {
			*crashes++
			r.log.Emit(trace.SystemCrash, "%s core %d at %v: system hang", spec.ID(), coreID, rec.Voltage)
			r.log.Emit(trace.Recovery, "watchdog power-cycled the board (recovery #%d)", *crashes)
		}
		r.log.Emit(trace.RunDone, "%s core %d %v run %d -> %s", spec.ID(), coreID, rec.Voltage, rec.RunIndex, rec.Classify())
	}
	r.log.Emit(trace.CampaignEnd, "%s on core %d", spec.ID(), coreID)
}

// runLadder sweeps one (benchmark, core) campaign downward against the
// worker board's state snapshot, appending records to buf.
//
//xvolt:hotpath inner sweep loop; allocation profile pinned by BENCH_baseline.json
func (r *LadderRunner) runLadder(wm *xgene.Machine, bs xgene.BatchState, spec *workload.Spec, coreID int, cfg *Config, buf []RunRecord) []RunRecord {
	rng := newCampaignRand(CampaignSeed(cfg.Seed, bs.Chip.Name, spec.Name, spec.Input, coreID))
	margins := wm.Assess(coreID, spec, units.RegimeOf(cfg.Frequency))
	cleanAbove := silicon.EffectiveSafeVmin(margins, bs.Prot)
	golden := spec.Golden()

	proto := RunRecord{
		Chip:      bs.Chip.Name,
		Benchmark: spec.Name,
		Input:     spec.Input,
		Core:      coreID,
		Frequency: cfg.Frequency,
	}
	st := bs.State
	var inj workload.Bitflip // rescheduled for every SDC cell
	consecutiveAllCrash := 0
	for v := cfg.StartVoltage; v >= cfg.StopVoltage; v -= units.VoltageStep {
		if v >= cleanAbove && st.Clean(bs.Chip) {
			// Clean region: the sampled path would return zero effects
			// without consuming a single draw, so the step's records are
			// synthesized outright. A clean step resets the early-exit
			// crash counter, same as a sampled step with zero crashes.
			for run := 0; run < cfg.Runs; run++ {
				rec := proto
				rec.Voltage = v
				rec.RunIndex = run
				buf = append(buf, rec)
			}
			consecutiveAllCrash = 0
			continue
		}
		crashesThisStep := 0
		for run := 0; run < cfg.Runs; run++ {
			cell := xgene.SampleCell(rng, bs, st, margins, v)
			rec := proto
			rec.Voltage = v
			rec.RunIndex = run
			rec.DeltaCE = cell.Delta.TotalCE()
			rec.DeltaUE = cell.Delta.TotalUE()
			rec.ByLocation = cell.Delta
			switch {
			case cell.Effects.SC:
				rec.SystemCrashed = true
				rec.ExitCode = -1
				rec.Recovered = true
				st.ResetAfterCrash()
				crashesThisStep++
			case cell.Effects.AC:
				rec.ExitCode = 134
			case cell.Effects.SDC:
				inj.Reset(rng, cell.Effects.SDCBits)
				rec.OutputMismatch = spec.Run(&inj) != golden
			}
			buf = append(buf, rec)
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
	return buf
}
