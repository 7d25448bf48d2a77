package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"xvolt/internal/server"
	"xvolt/internal/trace"
	"xvolt/internal/workload"
)

// dashboard: a 2,000-board in-memory fleet served by the fleet server on
// a loopback listener. After every committed chunk, two client/v1 readers
// each make a fixed number of dashboard requests. Read-heavy: delta
// encode, handler write, transport and client decode dominate.
type dashboard struct {
	o        options
	boards   int
	chunks   int
	perChunk int // requests per reader per chunk: one mix block

	t       *tracing
	r       *rig
	srv     *listener
	readers []*reader

	tracedFrom, tracedTo storeMark
	tracedReaders        [2][]readerMark
}

// dashboardChunksPerSecond is the nominal chunk rate on the reference
// 2-vCPU Intel Xeon VM; it only sizes the fixed chunk count.
const dashboardChunksPerSecond = 205

func newDashboard(o options) *dashboard {
	return &dashboard{o: o, boards: 2000, chunks: sizeOf(o.seconds, dashboardChunksPerSecond), perChunk: blockLen()}
}

func (w *dashboard) sizes() []kv {
	return []kv{{"boards", w.boards}, {"store", "in-memory"}, {"readers", 2}, {"chunk_polls", chunk},
		{"chunks", w.chunks}, {"requests_per_reader_per_chunk", w.perChunk},
		{"requests", 2 * w.chunks * w.perChunk}, {"mix", fleetMix()}}
}

func (w *dashboard) lazy() { primeGoldens(workload.PrimarySuite()) }

// timedFleet times the fleet's delta encoder from outside while a tracer
// is armed; the server reaches the fleet only through it.
type timedFleet struct {
	fleetHandle
	t *tracing
}

func (f *timedFleet) BoardsDeltaJSON(since uint64) (uint64, []byte, error) {
	_, span := f.t.tr.Load().StartSpan(context.Background(), "fleet.delta_json")
	gen, body, err := f.fleetHandle.BoardsDeltaJSON(since)
	span.End()
	return gen, body, err
}

func (w *dashboard) setUp() error {
	w.t = &tracing{}
	r, err := buildRig(fleetConfig(w.boards, w.o.seed), w.o.trace)
	if err != nil {
		return err
	}
	w.r = r
	srv := server.New(nil)
	srv.SetMetrics(r.reg)
	srv.SetTracer(r.tracer)
	srv.SetAlerts(r.eng)
	var h http.Handler
	if w.o.trace {
		srv.SetFleet(&timedFleet{fleetHandle: r.m, t: w.t})
		h = tracedHandler(srv.Handler(), w.t, "server")
	} else {
		srv.SetFleet(r.m)
		h = srv.Handler()
	}
	if w.srv, err = serve(h); err != nil {
		return err
	}
	w.readers = nil
	for i := 0; i < 2; i++ {
		rd, err := newReader(w.srv.url, w.t, w.o.seed, "dashboard", i, "")
		if err != nil {
			return err
		}
		w.readers = append(w.readers, rd)
		if err := rd.bootstrap(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

func (w *dashboard) tearDown() {
	for _, rd := range w.readers {
		rd.mt.close()
	}
	w.readers = nil
	if err := w.srv.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fleet server:", err)
	}
	w.srv = nil
	_ = w.r.close()
	w.r = nil
}

func (w *dashboard) run(ctx context.Context, win *window) error {
	from := w.r.mark()
	var marks []readerMark
	for _, rd := range w.readers {
		marks = append(marks, rd.mark())
	}
	w.t.tr.Store(win.tr)
	ctx = win.begin(ctx)
	for i := 0; i < w.chunks; i++ {
		cctx, cs := win.tr.StartSpan(ctx, "bench.chunk")
		w.r.commit(cctx, win.tr)
		_, rs := win.tr.StartSpan(cctx, "bench.reads")
		readAll(w.readers, win.tr)
		rs.End()
		cs.End()
		win.progress((i + 1) * len(w.readers) * w.perChunk)
	}
	win.end()
	w.t.tr.Store(nil)
	to := w.r.mark()
	for _, rd := range w.readers {
		rd.drain(win)
	}
	win.ops = len(w.readers) * w.chunks * w.perChunk
	if win.tr != nil {
		w.tracedFrom, w.tracedTo = from, to
		for i, rd := range w.readers {
			w.tracedReaders[i] = []readerMark{marks[i], rd.mark()}
		}
		return nil
	}
	win.counts = writeCounts(from, to)
	for i, rd := range w.readers {
		win.counts = append(win.counts, readerCounts(fmt.Sprintf("reader%d.", i), marks[i], rd.mark())...)
	}
	return nil
}

// readAll runs one burst on every reader concurrently and waits for all
// of them.
func readAll(readers []*reader, tr *trace.Tracer) {
	var wg sync.WaitGroup
	for _, rd := range readers {
		wg.Add(1)
		go func(rd *reader) {
			defer wg.Done()
			rd.burst(tr)
		}(rd)
	}
	wg.Wait()
}

// checks: the board table each reader assembled from its bootstrap
// snapshot plus every delta must equal the server's final full snapshot.
func (w *dashboard) checks(ctx context.Context) (int, []string) {
	fresh, mt := newClient(w.srv.url, &tracing{})
	defer mt.close()
	snap, err := fresh.FleetBoards(ctx)
	if err != nil {
		return 1, []string{fmt.Sprintf("final snapshot: %v", err)}
	}
	var fails []string
	for i, rd := range w.readers {
		if err := rd.catchUp(ctx); err != nil {
			fails = append(fails, fmt.Sprintf("reader %d catch-up: %v", i, err))
			continue
		}
		if err := rd.tableMatches(snap); err != nil {
			fails = append(fails, fmt.Sprintf("reader %d: %v", i, err))
		}
	}
	return len(w.readers), fails
}

func (w *dashboard) layers(ctx context.Context, plain, traced *window, a *breakdown) (map[string]float64, []string) {
	out := map[string]float64{}
	w.r.writePathLayers(out, a, w.tracedFrom, w.tracedTo)
	fails := w.r.probes(ctx, out, traced.tr, filepath.Join(w.o.out, "tmp", fmt.Sprintf("dashboard-%d", os.Getpid())), 24)
	var deltas, moved int
	var trips int64
	for _, m := range w.tracedReaders {
		deltas += m[1].deltas - m[0].deltas
		moved += m[1].moved - m[0].moved
		trips += m[1].t.trips - m[0].t.trips
	}
	out["fleet.delta_json_us"] = a.stat("fleet.delta_json").meanUS()
	if deltas > 0 {
		out["fleet.delta_boards"] = float64(moved) / float64(deltas)
	}
	readPathLayers(out, a, "server")
	clientLayers(out, a, trips)
	return out, fails
}

func (w *dashboard) discipline() []kv {
	return []kv{
		{"lazy", "workload golden checksums primed before the first build, counted once in setup_s"},
		{"setup", "fleet.New, fleet server on a loopback listener, two readers"},
		{"warm", "each reader's bootstrap snapshot, health and event tail prime the server's snapshot arena and ETag caches during set-up"},
	}
}
