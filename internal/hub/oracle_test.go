package hub

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	apiv1 "xvolt/api/v1"
	clientv1 "xvolt/client/v1"
	"xvolt/internal/fleet"
)

// frozenGather is the pusher's gather as it was before the store
// filtered its ring in place: copy and convert every retained event,
// keep those with At or LastAt ≥ lastAt, and cut a copy of the whole
// transition log after seq lastT.
func frozenGather(m *fleet.Manager, lastAt time.Duration, lastT uint64) ([]apiv1.Event, []apiv1.Transition) {
	transitions := m.Transitions()
	transitions = transitions[sort.Search(len(transitions), func(i int) bool { return transitions[i].Seq > lastT }):]
	return frozenEvents(m.Store(), lastAt), transitions
}

// frozenEvents is frozenGather's event filter.
func frozenEvents(st *fleet.Store, lastAt time.Duration) []apiv1.Event {
	var events []apiv1.Event
	for _, e := range st.Events() {
		if e.At >= lastAt || e.LastAt >= lastAt {
			events = append(events, e.APIv1())
		}
	}
	return events
}

// sameGather fails unless a gather equals the frozen one (a nil and an
// empty tail are the same: both are omitted from the push).
func sameGather(t *testing.T, what string, events []apiv1.Event, transitions []apiv1.Transition,
	wantEv []apiv1.Event, wantTr []apiv1.Transition) {
	t.Helper()
	if !slices.Equal(events, wantEv) {
		t.Fatalf("%s: gathered %d events, the frozen filter %d:\n got %v\nwant %v", what, len(events), len(wantEv), events, wantEv)
	}
	if !slices.Equal(transitions, wantTr) {
		t.Fatalf("%s: gathered %d transitions, the frozen filter %d:\n got %v\nwant %v", what, len(transitions), len(wantTr), transitions, wantTr)
	}
}

// TestPushGatherMatchesFrozenFilter: at every push of seeded fleets the
// pusher carries exactly the events and transitions the frozen filter
// selects at its baseline, and the fleet's two reads agree with it at
// every boundary a push could hold. The fleets evict (small stores, a
// durable one among them), merge chains of events (a wide dedup
// window), and resync after a hub restart (the 409 path).
func TestPushGatherMatchesFrozenFilter(t *testing.T) {
	for _, c := range []struct {
		name           string
		cfg            fleet.Config
		merges, evicts bool
	}{
		{"small store", fleet.Config{Boards: 5, Seed: 7, ConfirmRuns: 1, StoreCap: 6}, false, true},
		{"dedup merges", fleet.Config{Boards: 6, Seed: 1, ConfirmRuns: 1, StoreCap: 64, DedupWindow: time.Minute}, true, true},
		{"durable", fleet.Config{Boards: 6, Seed: 1, ConfirmRuns: 1, StoreCap: 24, DedupWindow: time.Minute,
			StoreDir: t.TempDir(), StoreSegmentBytes: 4096}, true, true},
		{"default store", fleet.Config{Boards: 8, Seed: 5, ConfirmRuns: 1}, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := fleet.New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			rec := newIngestRecorder(New())
			ts := httptest.NewServer(rec)
			defer ts.Close()
			p := NewPusher(clientv1.New(ts.URL), "rack", m)
			ctx := context.Background()
			for round, polls := range []int{0, 1, 7, 30, 2, 45, 13, 60, 1, 30, 90, 5} {
				m.Run(polls)
				checkReads(t, m)
				restart := round == 6
				if restart {
					rec.swap(New())
				}
				wantEv, wantTr := frozenGather(m, p.lastAt, p.lastT)
				fullEv, fullTr := frozenGather(m, 0, 0)
				sent := rec.count()
				if _, err := p.Push(ctx); err != nil {
					t.Fatal(err)
				}
				reqs := rec.since(sent)
				if want := map[bool]int{false: 1, true: 2}[restart]; len(reqs) != want {
					t.Fatalf("round %d: %d requests, want %d", round, len(reqs), want)
				}
				sameGather(t, fmt.Sprintf("round %d push", round), reqs[0].Events, reqs[0].Transitions, wantEv, wantTr)
				if restart {
					sameGather(t, fmt.Sprintf("round %d resync", round), reqs[1].Events, reqs[1].Transitions, fullEv, fullTr)
				}
			}
			st := m.Store()
			if c.merges != (st.Deduped() > 0) || c.evicts != (st.Dropped() > 0) {
				t.Errorf("store merged %d and evicted %d events; the case wants merges=%v evictions=%v",
					st.Deduped(), st.Dropped(), c.merges, c.evicts)
			}
			if len(m.Transitions()) == 0 {
				t.Error("no transitions: their gather is untested")
			}
		})
	}
}

// checkReads compares EventsSince and TransitionsSince with the frozen
// filter at every At and LastAt the store holds, one past each, and
// every transition seq.
func checkReads(t *testing.T, m *fleet.Manager) {
	t.Helper()
	checkEventsSince(t, m.Store(), m.Now())
	var maxT uint64
	if tr := m.Transitions(); len(tr) > 0 {
		maxT = tr[len(tr)-1].Seq
	}
	for seq := uint64(0); seq <= maxT+1; seq++ {
		_, want := frozenGather(m, 0, seq)
		if got := m.TransitionsSince(seq); !slices.Equal(got, want) {
			t.Fatalf("TransitionsSince(%d) = %v, the frozen filter %v", seq, got, want)
		}
	}
}

// checkEventsSince compares a store's EventsSince with the frozen
// filter at every At and LastAt it holds, one past each, 0 and past now.
func checkEventsSince(t *testing.T, st *fleet.Store, now time.Duration) {
	t.Helper()
	ats := []time.Duration{0, now + 1}
	for _, e := range st.Events() {
		ats = append(ats, e.At, e.At+1, e.LastAt, e.LastAt+1)
	}
	for _, at := range ats {
		if got, want := st.EventsSince(at), frozenEvents(st, at); !slices.Equal(got, want) {
			t.Fatalf("EventsSince(%v) = %v, the frozen filter %v", at, got, want)
		}
	}
}

// TestStoreEventsSinceMatchesFrozenFilter: after every append of random
// events whose repeats merge into chains (a merged event keeps its At
// and advances its LastAt) while a small capacity evicts, in both
// backends, EventsSince equals the frozen filter at every boundary.
func TestStoreEventsSinceMatchesFrozenFilter(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		stores := []*fleet.Store{fleet.NewStore(12, 10*time.Second, 0)}
		if trial < 2 {
			durable, err := fleet.OpenStore(t.TempDir(), 12, 10*time.Second, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			stores = append(stores, durable)
		}
		for _, st := range stores {
			rng := rand.New(rand.NewSource(int64(trial)))
			var now time.Duration
			st.SetClock(func() time.Duration { return now })
			for i := 0; i < 200; i++ {
				now += time.Duration(rng.Intn(4)) * time.Second
				st.Append(fleet.Event{Board: fmt.Sprintf("board-%02d", rng.Intn(3)),
					Kind: fleet.EventKind(rng.Intn(2)), MV: 900, Msg: "m"})
				checkEventsSince(t, st, now)
			}
			merged := 0
			for _, e := range st.Events() {
				if e.Count > 1 {
					merged++
				}
			}
			if merged == 0 || st.Dropped() == 0 {
				t.Fatalf("trial %d: %d merged events retained, %d evicted; both must occur", trial, merged, st.Dropped())
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// frozenEventsWalk is Hub.EventsAPIv1 as it was before the board index:
// walk every event the source ever pushed backwards, newest first,
// until n belong to the board.
func frozenEventsWalk(h *Hub, id string, n int) []apiv1.Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, board, ok := h.boardLocked(id)
	if !ok {
		return nil
	}
	var out []apiv1.Event
	for i := len(s.eventSeq) - 1; i >= 0 && (n <= 0 || len(out) < n); i-- {
		if e := s.events[s.eventSeq[i]]; e.Board == board {
			out = append(out, e)
		}
	}
	slices.Reverse(out)
	return out
}

// TestHubEventsIndexMatchesFrozenWalk: after every ingest of random
// pushes (seqs out of order, events updated in place, updates that move
// an event to another board, events of boards the hub holds no status
// for), every board's tail equals the frozen walk's, for n ≤ 0, n
// within the tail and n past it, as does a hub fed by a fleet's pusher.
func TestHubEventsIndexMatchesFrozenWalk(t *testing.T) {
	boards := []string{"board-00", "board-01", "board-02", "board-03"}
	ids := []string{"s/board-00", "s/board-01", "s/board-02", "s/board-03",
		"s/ghost", "s/", "t/board-00", "board-00", ""}
	ns := []int{-1, 0, 1, 2, 3, 7, 40, 1000}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		h := New()
		var moved, updated int
		for push := 0; push < 30; push++ {
			req := apiv1.IngestRequest{Source: "s"}
			if push%3 == 0 {
				for _, b := range boards[:1+rng.Intn(len(boards))] {
					req.Boards = append(req.Boards, apiv1.BoardStatus{ID: b})
				}
			}
			for k := rng.Intn(12); k > 0; k-- {
				board := boards[rng.Intn(len(boards))]
				if rng.Intn(8) == 0 {
					board = "ghost" // a board the hub has no status for
				}
				// A fresh seq (0 is dropped), below or above the ones
				// pushed so far, or a pushed one resent, merged in
				// place, or moved to another board.
				e := apiv1.Event{Seq: uint64(rng.Intn(160)), Board: board, Kind: "sdc-observed", Count: 1, Msg: "m"}
				if old, ok := h.sourceEvent("s", e.Seq); ok {
					switch rng.Intn(3) {
					case 0:
						e = old
					case 1:
						e = old
						e.Count++
						e.LastAt += time.Second
					}
					if old.Board != e.Board {
						moved++
					} else if old != e {
						updated++
					}
				}
				req.Events = append(req.Events, e)
			}
			if _, err := h.Ingest(req); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				for _, n := range ns {
					if got, want := h.EventsAPIv1(id, n), frozenEventsWalk(h, id, n); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d push %d: EventsAPIv1(%q, %d) = %v, the frozen walk %v", trial, push, id, n, got, want)
					}
				}
			}
		}
		if moved == 0 || updated == 0 {
			t.Fatalf("trial %d: %d events moved boards and %d updated in place; both must occur", trial, moved, updated)
		}
	}

	m, err := fleet.New(fleet.Config{Boards: 6, Seed: 9, ConfirmRuns: 1, StoreCap: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := New()
	ts := httptest.NewServer(h.Handler(nil))
	defer ts.Close()
	p := NewPusher(clientv1.New(ts.URL), "rack", m)
	for round := 0; round < 8; round++ {
		m.Run(25)
		if _, err := p.Push(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, b := range m.Boards() {
			for _, n := range ns {
				id := "rack/" + b.ID
				if got, want := h.EventsAPIv1(id, n), frozenEventsWalk(h, id, n); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: EventsAPIv1(%q, %d) = %v, the frozen walk %v", round, id, n, got, want)
				}
			}
		}
	}
}

// count returns how many ingest requests rec has recorded.
func (rec *ingestRecorder) count() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return len(rec.reqs)
}

// since returns the ingest requests recorded after the first i.
func (rec *ingestRecorder) since(i int) []apiv1.IngestRequest {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return slices.Clone(rec.reqs[i:])
}

// sourceEvent returns the event the hub holds under (source, seq).
func (h *Hub) sourceEvent(source string, seq uint64) (apiv1.Event, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sources[source]
	if !ok {
		return apiv1.Event{}, false
	}
	e, ok := s.events[seq]
	return e, ok
}

// TestSameHealthMatchesDeepEqual: the typed health comparison decides
// as reflect.DeepEqual did, NaN and nil-against-empty states included.
func TestSameHealthMatchesDeepEqual(t *testing.T) {
	base := apiv1.HealthSummary{Boards: 4, Polls: 100, Events: 30, DroppedEvents: 2, DedupedEvents: 5,
		Transitions: 7, States: []apiv1.StateCount{{State: "healthy", Boards: 3}, {State: "degraded", Boards: 1}}, Status: "degraded",
		MeanSavings: 0.09, VirtualNow: 100 * time.Second}
	edits := []func(h *apiv1.HealthSummary){
		func(h *apiv1.HealthSummary) {},
		func(h *apiv1.HealthSummary) { h.Boards++ },
		func(h *apiv1.HealthSummary) { h.Polls++ },
		func(h *apiv1.HealthSummary) { h.Events++ },
		func(h *apiv1.HealthSummary) { h.DroppedEvents++ },
		func(h *apiv1.HealthSummary) { h.DedupedEvents++ },
		func(h *apiv1.HealthSummary) { h.Transitions++ },
		func(h *apiv1.HealthSummary) { h.States = nil },
		func(h *apiv1.HealthSummary) { h.States = []apiv1.StateCount{} },
		func(h *apiv1.HealthSummary) { h.States = h.States[:1] },
		func(h *apiv1.HealthSummary) {
			h.States = []apiv1.StateCount{{State: "healthy", Boards: 3}, {State: "degraded", Boards: 2}}
		},
		func(h *apiv1.HealthSummary) {
			h.States = []apiv1.StateCount{{State: "healthy", Boards: 3}, {State: "unhealthy", Boards: 1}}
		},
		func(h *apiv1.HealthSummary) { h.Status = "ok" },
		func(h *apiv1.HealthSummary) { h.MeanSavings = math.NaN() },
		func(h *apiv1.HealthSummary) { h.MeanSavings = math.Copysign(0, -1) },
		func(h *apiv1.HealthSummary) { h.MeanSavings = 0 },
		func(h *apiv1.HealthSummary) { h.VirtualNow++ },
	}
	variant := func(i int) apiv1.HealthSummary {
		h := base
		h.States = slices.Clone(base.States)
		edits[i](&h)
		return h
	}
	for i := range edits {
		for j := range edits {
			a, b := variant(i), variant(j)
			if got, want := sameHealth(&a, &b), reflect.DeepEqual(a, b); got != want {
				t.Errorf("sameHealth(%+v, %+v) = %v, reflect.DeepEqual %v", a, b, got, want)
			}
		}
	}
}

// BenchmarkHubEventsTail reads a quiet board's tail (n=50) from a hub
// holding 4,099 events of one source. The board's 3 events came first,
// so a walk back from the newest event passes every other one before it
// has them.
func BenchmarkHubEventsTail(b *testing.B) {
	const boards, events = 64, 4096
	req := apiv1.IngestRequest{Source: "bench"}
	for i := 0; i < boards; i++ {
		req.Boards = append(req.Boards, apiv1.BoardStatus{ID: fmt.Sprintf("board-%02d", i)})
	}
	for seq := uint64(1); seq <= events+3; seq++ {
		board := 0
		if seq > 3 {
			board = 1 + int(seq)%(boards-1)
		}
		req.Events = append(req.Events, apiv1.Event{Seq: seq, At: time.Duration(seq) * time.Millisecond,
			Board: req.Boards[board].ID, Kind: "ce-burst", Count: 1, Msg: "edac corrected errors"})
	}
	h := New()
	if _, err := h.Ingest(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := h.EventsAPIv1("bench/board-00", 50); len(got) != 3 {
			b.Fatalf("quiet board tail holds %d events, want 3", len(got))
		}
	}
}
