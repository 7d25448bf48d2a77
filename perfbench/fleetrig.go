package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xvolt/internal/core"
	"xvolt/internal/eventstore"
	"xvolt/internal/fleet"
	"xvolt/internal/obs"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// chunk is the daemon's poll chunk (xvolt-fleet -chunk default).
const chunk = 32

// confirmRuns, storeCap and dedupWindow are the fleet.Config defaults,
// spelled out so the bring-up and eventstore probes use exactly the
// values the fleet ran with.
const (
	confirmRuns = 3
	storeCap    = 4096
	dedupWindow = 3 * time.Second
)

// fleetConfig is the xvolt-fleet daemon configuration at its defaults
// (in-memory store), with the worker pool capped at the core count.
func fleetConfig(boards int, seed int64) fleet.Config {
	workers := 4
	if n := runtime.NumCPU(); n < workers {
		workers = n
	}
	return fleet.Config{
		Boards:       boards,
		Seed:         seed,
		Workers:      workers,
		Shards:       1,
		RunsPerPoll:  2,
		BaseInterval: time.Second,
		ConfirmRuns:  confirmRuns,
		StoreCap:     storeCap,
		DedupWindow:  dedupWindow,
	}
}

// fleetHandle is what the benchmark calls on the fleet fleet.New returns:
// the fleet.Fleet surface the server and the pusher take, plus the
// poll-loop and dump methods. It names methods rather than a manager type,
// so the benchmark compiles whichever type fleet.New comes to return.
type fleetHandle interface {
	fleet.Fleet
	Run(polls int)
	Boards() []fleet.BoardStatus
	BoardsDeltaJSON(since uint64) (uint64, []byte, error)
	Store() *fleet.Store
	WriteTransitions(w io.Writer) error
	Polled() uint64
	Now() time.Duration
	SetMetrics(r *obs.Registry)
	SetTracer(t *trace.Tracer)
	Close() error
}

// rig is one fleet wired the way cmd/xvolt-fleet wires it: metrics
// registry, fleet tracer and alert engine.
type rig struct {
	cfg    fleet.Config
	m      fleetHandle
	reg    *obs.Registry
	tracer *trace.Tracer // the fleet's own tracer, shared with its server
	eng    *obs.AlertEngine
	build  time.Duration // fleet.New wall time
	heap   float64       // live heap the build added, bytes (trace mode)
}

// buildRig builds and wires a fleet. measureHeap brackets the build with
// forced GCs to attribute its live heap (trace mode only: the GCs would
// otherwise land in setup_s).
func buildRig(cfg fleet.Config, measureHeap bool) (*rig, error) {
	var before float64
	if measureHeap {
		before = liveHeapMB()
	}
	t0 := time.Now()
	m, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &rig{cfg: cfg, m: m, build: time.Since(t0)}
	if measureHeap {
		r.heap = (liveHeapMB() - before) * (1 << 20)
	}
	r.reg = obs.NewRegistry()
	m.SetMetrics(r.reg)
	r.tracer = trace.NewTracer(0, 1)
	m.SetTracer(r.tracer)
	r.eng = obs.NewAlertEngine(r.reg, m.Now)
	if err := r.eng.Add(fleet.AlertRules()...); err != nil {
		_ = m.Close()
		return nil, err
	}
	return r, nil
}

func (r *rig) close() error {
	if r == nil {
		return nil
	}
	return r.m.Close()
}

// commit runs one daemon poll-loop step: a chunk of polls, then the
// alert rules, each under its own span.
func (r *rig) commit(ctx context.Context, tr *trace.Tracer) {
	_, s := tr.StartSpan(ctx, "fleet.run")
	r.m.Run(chunk)
	s.End()
	_, s = tr.StartSpan(ctx, "obs.alert_eval")
	r.eng.Eval()
	s.End()
}

// storeMark is a snapshot of the fleet's write-path counters.
type storeMark struct {
	polls             uint64
	lastSeq           uint64 // events created so far (seqs are dense from 1)
	merged, evicted   uint64
	pollSum, pollSecN float64
}

func (r *rig) mark() storeMark {
	st := r.m.Store()
	var last uint64
	if ev := st.Events(); len(ev) > 0 {
		last = ev[len(ev)-1].Seq
	}
	h := r.pollHDR()
	return storeMark{
		polls: r.m.Polled(), lastSeq: last,
		merged: st.Deduped(), evicted: st.Dropped(),
		pollSum: h.Sum(), pollSecN: float64(h.Count()),
	}
}

// pollHDR is the fleet's own worker-side poll latency instrument.
func (r *rig) pollHDR() *obs.HDR {
	return r.reg.HDR("xvolt_fleet_poll_seconds", "Wall-clock duration of one board health poll.", obs.HDROpts{})
}

// writeCounts are the window's deterministic write-path counts.
func writeCounts(a, b storeMark) []kv {
	return []kv{
		{"polls", b.polls - a.polls},
		{"events_appended", b.lastSeq - a.lastSeq},
		{"events_merged", b.merged - a.merged},
		{"events_evicted", b.evicted - a.evicted},
	}
}

// dump renders the xvolt-fleet -dump artifact for the rig's fleet with
// the events of store (the fleet's own, or one replayed from its journal).
func (r *rig) dump(store *fleet.Store) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# fleet events (%d boards, %d polls, seed %d)\n", r.cfg.Boards, r.m.Polled(), r.cfg.Seed)
	if err := store.WriteText(&b); err != nil {
		return "", err
	}
	b.WriteString("# health transitions\n")
	if err := r.m.WriteTransitions(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// writePathLayers derives the fleet write-path metrics from the traced
// window's spans and the fleet's own instruments between two marks.
func (r *rig) writePathLayers(out map[string]float64, a *breakdown, from, to storeMark) {
	polls := float64(to.polls - from.polls)
	if polls == 0 {
		return
	}
	run := a.stat("fleet.run")
	runUS := 0.0
	if run != nil {
		runUS = float64(run.dur.Microseconds())
	}
	pollUS := 0.0
	if n := to.pollSecN - from.pollSecN; n > 0 {
		pollUS = (to.pollSum - from.pollSum) / n * 1e6
	}
	out["fleet.run_us_per_poll"] = runUS / polls
	out["fleet.poll_us"] = pollUS
	// The worker pool overlaps polls; what Run spends beyond the polls'
	// share of its workers is schedule draw, dispatch and commit.
	out["fleet.run_overhead_us_per_poll"] = runUS/polls - pollUS/float64(r.cfg.Workers)
	out["fleet.events_per_poll"] = float64(to.lastSeq-from.lastSeq+to.merged-from.merged) / polls
	out["fleet.evicted"] = float64(to.evicted - from.evicted)
	out["fleet.deduped"] = float64(to.merged - from.merged)
	out["obs.alert_eval_us"] = a.stat("obs.alert_eval").meanUS()
}

// bringUpProbe re-runs, on an evenly spaced sample of boards, the public
// steps fleet.New takes per board — with the same core.CampaignSeed
// derivations — each under its own span, one trace per board. It checks
// that every sampled floor equals the one the fleet characterized.
func (r *rig) bringUpProbe(ctx context.Context, tr *trace.Tracer, samples int) (map[string]float64, []string) {
	suite := workload.PrimarySuite()
	corners := []silicon.Corner{silicon.TTT, silicon.TFF, silicon.TSS}
	boards := r.m.Boards()
	var fails []string
	var runs int
	for j := 0; j < samples; j++ {
		i := j * len(boards) / samples
		st := boards[i]
		corner, spec, coreID := corners[i%len(corners)], suite[i%len(suite)], i%silicon.NumCores
		bctx, root := tr.StartSpan(ctx, "bench.board")
		fab := core.CampaignSeed(r.cfg.Seed, st.ID, "fabrication", corner.String(), i)
		_, s := tr.StartSpan(bctx, "silicon.newchip")
		chip := silicon.NewChip(corner, fab)
		s.End()
		_, s = tr.StartSpan(bctx, "xgene.new")
		m := xgene.New(chip)
		s.End()
		ccfg := core.DefaultConfig([]*workload.Spec{spec}, []int{coreID})
		ccfg.Seed = core.CampaignSeed(r.cfg.Seed, st.ID, "characterize", spec.ID(), coreID)
		_, s = tr.StartSpan(bctx, "core.findvmin")
		res, err := core.New(m).FindVminFast(spec, coreID, ccfg, confirmRuns)
		s.End()
		_, s = tr.StartSpan(bctx, "xgene.assess")
		m.Assess(coreID, spec, units.RegimeOf(units.MaxFrequency))
		s.End()
		root.End()
		runs += res.RunsUsed
		switch {
		case err != nil:
			fails = append(fails, fmt.Sprintf("bring-up probe %s: %v", st.ID, err))
		case int(res.SafeVmin) != st.FloorMV || spec.ID() != st.Workload || corner.String() != st.Corner || coreID != st.Core:
			fails = append(fails, fmt.Sprintf("bring-up probe %s: floor %d on %s/%s/core %d, fleet has %d on %s/%s/core %d",
				st.ID, res.SafeVmin, corner, spec.ID(), coreID, st.FloorMV, st.Corner, st.Workload, st.Core))
		}
	}
	a := analyze(tr.Spans())
	out := map[string]float64{
		"silicon.newchip_us":           a.stat("silicon.newchip").meanUS(),
		"xgene.new_us":                 a.stat("xgene.new").meanUS(),
		"core.findvmin_us":             a.stat("core.findvmin").meanUS(),
		"core.findvmin_runs":           float64(runs) / float64(samples),
		"xgene.assess_us":              a.stat("xgene.assess").meanUS(),
		"fleet.heap_kb_per_board":      r.heap / 1024 / float64(len(boards)),
		"fleet.build_unaccounted_frac": 0,
	}
	perBoard := out["silicon.newchip_us"] + out["xgene.new_us"] + out["core.findvmin_us"] + out["xgene.assess_us"]
	if b := float64(r.build.Microseconds()); b > 0 {
		out["fleet.build_unaccounted_frac"] = 1 - perBoard*float64(len(boards))/b
	}
	return out, fails
}

// eventstoreProbe appends the fleet's retained records to a fresh
// durable eventstore.Log, timing the appends and sizing the segments.
func (r *rig) eventstoreProbe(ctx context.Context, tr *trace.Tracer, dir string) (map[string]float64, error) {
	events := r.m.Store().Events()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, err := eventstore.OpenLog(dir, eventstore.LogOptions{Capacity: storeCap, DedupWindow: dedupWindow})
	if err != nil {
		return nil, err
	}
	_, s := tr.StartSpan(ctx, "eventstore.append")
	t0 := time.Now()
	for _, e := range events {
		if _, err := l.Append(eventstore.Record{
			At: e.At, Board: e.Board, Kind: int(e.Kind), State: int(e.State), MV: e.MV, Msg: e.Msg,
		}); err != nil {
			s.End()
			_ = l.Close()
			return nil, err
		}
	}
	d := time.Since(t0)
	s.End()
	if err := l.Close(); err != nil {
		return nil, err
	}
	var bytes int64
	segs, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, p := range segs {
		if fi, err := os.Stat(p); err == nil {
			bytes += fi.Size()
		}
	}
	n := float64(len(events))
	if n == 0 {
		return map[string]float64{}, nil
	}
	return map[string]float64{
		"eventstore.append_us":       float64(d.Microseconds()) / n,
		"eventstore.bytes_per_event": float64(bytes) / n,
	}, nil
}

// probes runs the bring-up and eventstore probes into out.
func (r *rig) probes(ctx context.Context, out map[string]float64, tr *trace.Tracer, dir string, samples int) []string {
	bring, fails := r.bringUpProbe(ctx, tr, samples)
	for k, v := range bring {
		out[k] = v
	}
	es, err := r.eventstoreProbe(ctx, tr, dir)
	if err != nil {
		fails = append(fails, fmt.Sprintf("eventstore probe: %v", err))
	}
	for k, v := range es {
		out[k] = v
	}
	return fails
}

// primeGoldens pays the workload golden checksums, the process-level
// lazy state every board poll reads.
func primeGoldens(specs []*workload.Spec) {
	for _, s := range specs {
		s.Golden()
	}
}
