package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"time"

	apiv1 "xvolt/api/v1"
	clientv1 "xvolt/client/v1"
	"xvolt/internal/core"
	"xvolt/internal/loadgen"
	"xvolt/internal/trace"
)

// reader is one closed-loop dashboard client. Each burst is one block of
// the fleet part of loadgen's DefaultMix — every target as many times as
// its weight — in an order shuffled by a seeded PRNG, so the mix is exact
// in every burst and only the order depends on the seed. It revalidates
// health and event tails by ETag, resumes board listings with ?since=,
// and assembles its own board table from its bootstrap snapshot plus
// every delta.
type reader struct {
	c     *clientv1.Client
	mt    *meteredTransport
	rng   *rand.Rand
	block []string // one burst: each target name repeated by its weight
	board string   // events target, prefixed with the hub source if any
	n     int      // events tail length

	table  map[string]apiv1.BoardStatus
	deltas int // delta responses applied
	moved  int // boards those deltas carried
	calls  int
	lat    []float64
	fails  []string
}

// fleetMix is the fleet part of loadgen.DefaultMix (fleet 4 : health 3 :
// events 2).
func fleetMix() []loadgen.Target {
	var out []loadgen.Target
	for _, t := range loadgen.DefaultMix() {
		if strings.HasPrefix(t.Path, "/api/fleet") {
			out = append(out, t)
		}
	}
	return out
}

// newReader builds reader i of a workload; source prefixes the events
// board for a hub (empty for a fleet server).
func newReader(base string, t *tracing, seed int64, name string, i int, source string) (*reader, error) {
	c, mt := newClient(base, t)
	r := &reader{c: c, mt: mt,
		rng:   rand.New(rand.NewSource(core.CampaignSeed(seed, "perfbench", name, "reader", i))),
		table: map[string]apiv1.BoardStatus{}}
	for _, m := range fleetMix() {
		for k := 0; k < m.Weight; k++ {
			r.block = append(r.block, m.Name)
		}
		if m.Name != "events" {
			continue
		}
		u, err := url.Parse(m.Path)
		if err != nil {
			return nil, err
		}
		r.board = strings.TrimSuffix(strings.TrimPrefix(u.Path, "/api/fleet/"), "/events")
		if source != "" {
			r.board = source + "/" + r.board
		}
		if r.n, err = strconv.Atoi(u.Query().Get("n")); err != nil {
			return nil, fmt.Errorf("events target %q: %w", m.Path, err)
		}
	}
	return r, nil
}

// bootstrap primes the client's caches and the server's: a full board
// snapshot (the table's starting point), the health summary and the
// event tail.
func (r *reader) bootstrap(ctx context.Context) error {
	boards, err := r.c.FleetBoards(ctx)
	if err != nil {
		return fmt.Errorf("bootstrap snapshot: %w", err)
	}
	for _, b := range boards.Boards {
		r.table[b.ID] = b
	}
	if _, err := r.c.FleetHealth(ctx); err != nil {
		return fmt.Errorf("bootstrap health: %w", err)
	}
	if _, err := r.c.BoardEvents(ctx, r.board, r.n); err != nil {
		return fmt.Errorf("bootstrap events: %w", err)
	}
	return nil
}

// read makes one request, timed from the call to the decoded result.
// Each request roots its own trace.
func (r *reader) read(tr *trace.Tracer, name string) {
	ctx, span := tr.StartSpan(context.Background(), "client."+name)
	t0 := time.Now()
	var err error
	switch name {
	case "fleet":
		err = r.catchUp(ctx)
	case "health":
		_, err = r.c.FleetHealth(ctx)
	case "events":
		_, err = r.c.BoardEvents(ctx, r.board, r.n)
	default:
		err = fmt.Errorf("no client call for mix target %q", name)
	}
	r.lat = append(r.lat, msSince(t0))
	span.End()
	r.calls++
	if err != nil {
		r.fails = append(r.fails, fmt.Sprintf("%s: %v", name, err))
	}
}

// catchUp asks for the boards committed since the newest generation seen
// and folds them into the table (a 304 means the table is current).
func (r *reader) catchUp(ctx context.Context) error {
	d, err := r.c.FleetDelta(ctx, r.c.Generation())
	if err != nil || d == nil {
		return err
	}
	r.deltas++
	r.moved += len(d.Boards)
	for _, b := range d.Boards {
		r.table[b.ID] = b
	}
	return nil
}

// burst makes one shuffled block of requests back to back.
func (r *reader) burst(tr *trace.Tracer) {
	r.rng.Shuffle(len(r.block), func(i, j int) { r.block[i], r.block[j] = r.block[j], r.block[i] })
	for _, name := range r.block {
		r.read(tr, name)
	}
}

// drain moves the reader's samples and failures into the window.
func (r *reader) drain(w *window) {
	w.lat = append(w.lat, r.lat...)
	w.fails = append(w.fails, r.fails...)
	w.tries += r.calls
	r.lat, r.fails, r.calls = nil, nil, 0
}

// readerMark snapshots a reader's deterministic counters.
type readerMark struct {
	t             transportMark
	deltas, moved int
}

func (r *reader) mark() readerMark {
	return readerMark{t: r.mt.mark(), deltas: r.deltas, moved: r.moved}
}

func readerCounts(prefix string, a, b readerMark) []kv {
	return append(b.t.sub(a.t).kvs(prefix),
		kv{prefix + "delta_responses", b.deltas - a.deltas},
		kv{prefix + "delta_boards", b.moved - a.moved})
}

// tableMatches reports whether the reader's assembled table equals a
// full snapshot, board for board.
func (r *reader) tableMatches(snap apiv1.Boards) error {
	if len(r.table) != len(snap.Boards) {
		return fmt.Errorf("table has %d boards, snapshot %d", len(r.table), len(snap.Boards))
	}
	for _, b := range snap.Boards {
		if got, ok := r.table[b.ID]; !ok || got != b {
			return fmt.Errorf("board %s differs from the final snapshot", b.ID)
		}
	}
	return nil
}
