package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	apiv1 "xvolt/api/v1"
	clientv1 "xvolt/client/v1"
	"xvolt/internal/fleet"
	"xvolt/internal/hub"
	"xvolt/internal/obs"
	"xvolt/internal/workload"
)

// replicate: a 2,000-board in-memory fleet running the daemon loop
// Run(32) → alert Eval → Pusher.Push to an in-process hub on loopback,
// with one client/v1 reader running the dashboard mix against the hub
// after each push. Replicating writes to the hub dominates.
type replicate struct {
	o        options
	boards   int
	chunks   int
	perPush  int // hub reads after each push: one mix block
	source   string
	t        *tracing
	r        *rig
	h        *hub.Hub
	hubReg   *obs.Registry
	hubL     *listener
	pushT    *meteredTransport
	pusher   *hub.Pusher
	counted  *countingFleet // trace mode: counts the boards each push carries
	rd       *reader
	pending  int // committed polls the hub has not acknowledged yet
	last     apiv1.IngestResponse
	ingested ingestTally

	tracedFrom, tracedTo storeMark
	tracedIngest         [2]ingestTally
	tracedReader         [2]readerMark
	tracedPush           [2]transportMark
	tracedBoards         int64
}

// ingestTally sums the hub's per-push answers.
type ingestTally struct{ pushes, newEv, updEv, dupEv, newTr int }

func (a ingestTally) sub(b ingestTally) ingestTally {
	return ingestTally{a.pushes - b.pushes, a.newEv - b.newEv, a.updEv - b.updEv, a.dupEv - b.dupEv, a.newTr - b.newTr}
}

// replicateChunksPerSecond is the nominal push rate on the reference
// 2-vCPU Intel Xeon VM; it only sizes the fixed chunk count.
const replicateChunksPerSecond = 15

func newReplicate(o options) *replicate {
	return &replicate{o: o, boards: 2000, chunks: sizeOf(o.seconds, replicateChunksPerSecond), perPush: blockLen(), source: "fleet"}
}

func (w *replicate) sizes() []kv {
	return []kv{{"boards", w.boards}, {"store", "in-memory"}, {"chunk_polls", chunk}, {"chunks", w.chunks},
		{"pushes", w.chunks}, {"hub_reads_per_push", w.perPush}, {"hub_reads", w.chunks * w.perPush},
		{"mix", fleetMix()}}
}

func (w *replicate) lazy() { primeGoldens(workload.PrimarySuite()) }

// countingFleet counts the board statuses the pusher gathers.
type countingFleet struct {
	fleetHandle
	boards atomic.Int64
}

func (f *countingFleet) Boards() []fleet.BoardStatus {
	b := f.fleetHandle.Boards()
	f.boards.Add(int64(len(b)))
	return b
}

func (w *replicate) setUp() error {
	w.t = &tracing{}
	w.ingested, w.pending = ingestTally{}, 0
	r, err := buildRig(fleetConfig(w.boards, w.o.seed), w.o.trace)
	if err != nil {
		return err
	}
	w.r = r
	w.h = hub.New()
	w.hubReg = obs.NewRegistry()
	w.h.SetMetrics(w.hubReg)
	h := w.h.Handler(w.hubReg)
	if w.o.trace {
		h = tracedHandler(h, w.t, "hub")
	}
	if w.hubL, err = serve(h); err != nil {
		return err
	}
	w.pushT = newTransport(w.t, "push.roundtrip")
	var f fleet.Fleet = r.m
	if w.o.trace {
		w.counted = &countingFleet{fleetHandle: r.m}
		f = w.counted
	}
	w.pusher = hub.NewPusher(clientv1.New(w.hubL.url, clientv1.WithHTTPClient(&http.Client{Transport: w.pushT})), w.source, f)
	// The hub's first push carries the whole fleet.
	resp, err := w.pusher.Push(context.Background())
	if err != nil {
		return fmt.Errorf("first push: %w", err)
	}
	w.note(resp)
	if w.rd, err = newReader(w.hubL.url, w.t, w.o.seed, "replicate", 0, w.source); err != nil {
		return err
	}
	return w.rd.bootstrap(context.Background())
}

func (w *replicate) note(resp apiv1.IngestResponse) {
	w.last = resp
	w.ingested.pushes++
	w.ingested.newEv += resp.NewEvents
	w.ingested.updEv += resp.UpdatedEvents
	w.ingested.dupEv += resp.DuplicateEvents
	w.ingested.newTr += resp.NewTransitions
}

func (w *replicate) tearDown() {
	if w.rd != nil {
		w.rd.mt.close()
	}
	if w.pushT != nil {
		w.pushT.close()
	}
	w.rd, w.pushT = nil, nil
	if err := w.hubL.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: hub server:", err)
	}
	w.hubL = nil
	_ = w.r.close()
	w.r = nil
}

func (w *replicate) run(ctx context.Context, win *window) error {
	from, rdFrom, pushFrom, ingFrom := w.r.mark(), w.rd.mark(), w.pushT.mark(), w.ingested
	var boardsFrom int64
	if w.counted != nil {
		boardsFrom = w.counted.boards.Load()
	}
	acked := 0
	w.t.tr.Store(win.tr)
	ctx = win.begin(ctx)
	for i := 0; i < w.chunks; i++ {
		cctx, cs := win.tr.StartSpan(ctx, "bench.chunk")
		_, s := win.tr.StartSpan(cctx, "fleet.run")
		w.r.m.Run(chunk)
		s.End()
		committed := time.Now()
		w.pending += chunk
		_, s = win.tr.StartSpan(cctx, "obs.alert_eval")
		w.r.eng.Eval()
		s.End()
		pctx, ps := win.tr.StartSpan(cctx, "push")
		resp, err := w.pusher.Push(pctx)
		ps.End()
		win.lag = append(win.lag, msSince(committed))
		if err != nil {
			win.fail("push: %v", err)
		} else {
			w.note(resp)
			acked += w.pending
			w.pending = 0
		}
		_, rs := win.tr.StartSpan(cctx, "bench.reads")
		w.rd.burst(win.tr)
		rs.End()
		cs.End()
		win.progress(acked)
	}
	win.end()
	w.t.tr.Store(nil)
	to := w.r.mark()
	w.rd.drain(win)
	win.tries += w.chunks
	win.ops = acked
	if win.tr != nil {
		w.tracedFrom, w.tracedTo = from, to
		w.tracedIngest = [2]ingestTally{ingFrom, w.ingested}
		w.tracedReader = [2]readerMark{rdFrom, w.rd.mark()}
		w.tracedPush = [2]transportMark{pushFrom, w.pushT.mark()}
		w.tracedBoards = w.counted.boards.Load() - boardsFrom
		return nil
	}
	ing := w.ingested.sub(ingFrom)
	win.counts = append(writeCounts(from, to),
		kv{"pushes", ing.pushes}, kv{"hub_new_events", ing.newEv}, kv{"hub_updated_events", ing.updEv},
		kv{"hub_duplicate_events", ing.dupEv}, kv{"hub_new_transitions", ing.newTr})
	win.counts = append(win.counts, w.pushT.mark().sub(pushFrom).kvs("push.")...)
	win.counts = append(win.counts, readerCounts("reader.", rdFrom, w.rd.mark())...)
	return nil
}

// checks: the hub's per-source dump must equal the fleet's own dump on
// everything the fleet still retains (the hub keeps what the fleet's
// retention later evicted), and the hub must report no gaps.
func (w *replicate) checks(ctx context.Context) (int, []string) {
	var fails []string
	var hb strings.Builder
	if err := w.h.WriteSourceDump(&hb, w.source); err != nil {
		return 1, []string{fmt.Sprintf("hub dump: %v", err)}
	}
	full, err := w.r.dump(w.r.m.Store())
	if err != nil {
		return 1, []string{err.Error()}
	}
	_, fleetDump, _ := strings.Cut(full, "\n") // the hub dump has no header line
	hubEv, hubTr := splitDump(hb.String())
	fleetEv, fleetTr := splitDump(fleetDump)
	if !hasSuffix(hubEv, fleetEv) {
		fails = append(fails, "hub events differ from the fleet's retained events")
	}
	if !hasSuffix(hubTr, fleetTr) {
		fails = append(fails, "hub transitions differ from the fleet's transition log")
	}
	if w.last.Gaps != 0 {
		fails = append(fails, fmt.Sprintf("hub reports %d gaps", w.last.Gaps))
	}
	return 2, fails
}

// splitDump splits a dump into its event lines and transition lines.
func splitDump(d string) (events, transitions []string) {
	ev, tr, _ := strings.Cut(d, "# health transitions\n")
	return strings.SplitAfter(ev, "\n"), strings.SplitAfter(tr, "\n")
}

func hasSuffix(all, tail []string) bool {
	if len(tail) > len(all) {
		return false
	}
	off := len(all) - len(tail)
	for i := range tail {
		if all[off+i] != tail[i] {
			return false
		}
	}
	return true
}

func (w *replicate) layers(ctx context.Context, plain, traced *window, a *breakdown) (map[string]float64, []string) {
	out := map[string]float64{}
	w.r.writePathLayers(out, a, w.tracedFrom, w.tracedTo)
	fails := w.r.probes(ctx, out, traced.tr, filepath.Join(w.o.out, "tmp", fmt.Sprintf("replicate-%d", os.Getpid())), 24)
	ing := w.tracedIngest[1].sub(w.tracedIngest[0])
	if p := float64(ing.pushes); p > 0 {
		carried := float64(ing.newEv + ing.updEv + ing.dupEv)
		out["push.bytes"] = float64(w.tracedPush[1].sub(w.tracedPush[0]).sent) / p
		out["push.boards"] = float64(w.tracedBoards) / p
		out["push.events"] = carried / p
		if carried > 0 {
			out["hub.useful_event_frac"] = float64(ing.newEv) / carried
		}
	}
	if s := a.stat("push"); s != nil {
		out["push.local_us"] = float64(s.self.Microseconds()) / float64(s.n)
	}
	lag := sortedCopy(plain.lag)
	out["push.lag_p50_ms"] = quantile(lag, 0.5)
	out["push.lag_p90_ms"] = quantile(lag, 0.9)
	out["hub.ingest_us"] = a.stat("hub.ingest").meanUS()
	out["hub.gaps"] = float64(w.last.Gaps)
	readPathLayers(out, a, "hub")
	clientLayers(out, a, w.tracedReader[1].t.trips-w.tracedReader[0].t.trips)
	return out, fails
}

func (w *replicate) discipline() []kv {
	return []kv{
		{"lazy", "workload golden checksums primed before the first build, counted once in setup_s"},
		{"setup", "fleet.New, hub on a loopback listener, the hub's first full push, the reader's bootstrap"},
		{"warm", "the first push replicates the whole fleet and the reader's bootstrap primes the hub's read path during set-up"},
	}
}
