// Package hub is the aggregation tier: one xvolt-hub daemon receives
// event/status pushes from many xvolt-fleet daemons (client-push over
// api/v1, POST /api/hub/ingest) and merges them into a global board
// view served on the same /api/* surface a single fleet exposes.
//
// Replication model: each source numbers its events with the store's
// dense per-source sequence (seq 1, 2, 3, …; dedup merges re-touch an
// existing seq instead of minting one). The hub upserts by (source,
// seq): a new seq is appended, a changed body (a dedup merge raising
// Count/LastAt) updates in place, an identical body is a duplicate —
// which is what makes pushes idempotent and retries safe.
//
// Gap detection: the seq space is dense, so any seq the hub never saw
// was either evicted at the source before the first push that could
// have carried it, or lost in transit. Sources report their eviction
// counter in the pushed health summary; the hub charges missing seqs
// against it and flags only the unexplained remainder as gaps. Dedup
// merges never consume a seq, so they can never masquerade as loss.
//
// Delta pushes: a push's boards may be only those that changed since
// the source generation named by its BoardsSince field. The hub accepts
// such a delta only against a generation it has itself ingested from
// that source; otherwise (a restarted hub, or a source it never heard
// of) it refuses the push with ErrUnknownBaseline before touching any
// state, and the pusher resends its full retained state. The hub stamps
// every board with the hub generation at which its status last changed,
// so /api/fleet?since=S answers with exactly the boards changed after S.
//
// Determinism: the hub's per-source state is a pure function of the
// ingested request sequence. Rendering a source's dump replays the
// exact text the source's own store would print — byte-identical when
// no retention eviction trimmed the source between pushes — which the
// hub tests and the CI smoke step pin against `xvolt-fleet -dump`.
package hub

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/fleet"
)

// source is one fleet daemon's replicated state.
type source struct {
	name   string
	gen    uint64 // source-reported snapshot generation
	vnow   time.Duration
	pushes uint64

	boards map[string]*board
	sorted []*board // boards by id (map iteration never reaches output)

	events   map[uint64]apiv1.Event
	eventSeq []uint64             // ascending seqs
	byBoard  map[string]*[]uint64 // board → its events' seqs, ascending
	maxSeq   uint64

	transitions map[uint64]apiv1.Transition
	transSeq    []uint64 // ascending seqs

	health *apiv1.HealthSummary
}

// board is one replicated board status and the hub generation at which
// it last changed.
type board struct {
	status  apiv1.BoardStatus
	changed uint64
}

// gaps is the unexplained missing-seq count: seqs in [1, maxSeq] the
// hub never saw, minus the evictions the source itself reported.
func (s *source) gaps() uint64 {
	missing := s.maxSeq - uint64(len(s.events))
	var evicted uint64
	if s.health != nil {
		evicted = s.health.DroppedEvents
	}
	if missing <= evicted {
		return 0
	}
	return missing - evicted
}

// nextSeq is the lowest event seq not yet seen from this source.
func (s *source) nextSeq() uint64 { return s.maxSeq + 1 }

// Hub aggregates pushed fleet state. Construct with New; safe for
// concurrent use.
type Hub struct {
	mu      sync.Mutex
	sources map[string]*source
	names   []string // sorted source names

	// gen counts state-changing ingests; the HTTP layer keys ETags off
	// it exactly as a fleet keys them off its snapshot generation.
	gen atomic.Uint64

	m hubMetrics
}

// New returns an empty hub.
func New() *Hub {
	return &Hub{sources: map[string]*source{}}
}

// Generation returns the hub's aggregate-view generation. It changes
// exactly when an ingest changes the observable state.
func (h *Hub) Generation() uint64 { return h.gen.Load() }

// ErrBadSource rejects ingests with an unusable source name.
var ErrBadSource = errors.New("hub: source name must be non-empty and must not contain '/'")

// ErrUnknownBaseline refuses a delta push whose BoardsSince names a
// source generation this hub never ingested — the source must resend
// its full state (the HTTP layer answers 409 Conflict).
var ErrUnknownBaseline = errors.New("hub: boards_since is newer than any generation ingested from this source; push the full state")

// Ingest folds one push into the hub's view, returning what changed.
// Idempotent: replaying a push yields all-duplicates and no state
// change. A delta push against an unknown baseline is refused with
// ErrUnknownBaseline and changes nothing.
func (h *Hub) Ingest(req apiv1.IngestRequest) (apiv1.IngestResponse, error) {
	if req.Source == "" || strings.Contains(req.Source, "/") {
		return apiv1.IngestResponse{}, ErrBadSource
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	s, ok := h.sources[req.Source]
	if req.BoardsSince > 0 && (!ok || req.BoardsSince > s.gen) {
		h.m.resyncs.Inc()
		return apiv1.IngestResponse{}, ErrUnknownBaseline
	}
	if !ok {
		s = &source{
			name:        req.Source,
			boards:      map[string]*board{},
			events:      map[uint64]apiv1.Event{},
			byBoard:     map[string]*[]uint64{},
			transitions: map[uint64]apiv1.Transition{},
		}
		h.sources[req.Source] = s
		i := sort.SearchStrings(h.names, req.Source)
		h.names = append(h.names, "")
		copy(h.names[i+1:], h.names[i:])
		h.names[i] = req.Source
	}

	changed := !ok
	s.pushes++
	if req.Generation > s.gen {
		s.gen = req.Generation
		changed = true
	}
	if req.VirtualNow > s.vnow {
		s.vnow = req.VirtualNow
		changed = true
	}

	// Boards that change are stamped with the generation this ingest
	// commits; gen only advances under h.mu, so it is the next one.
	next := h.gen.Load() + 1
	resp := apiv1.IngestResponse{Source: req.Source}
	for _, st := range req.Boards {
		b, seen := s.boards[st.ID]
		if !seen {
			b = &board{}
			s.boards[st.ID] = b
			i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i].status.ID >= st.ID })
			s.sorted = append(s.sorted, nil)
			copy(s.sorted[i+1:], s.sorted[i:])
			s.sorted[i] = b
		}
		if !seen || b.status != st {
			b.status = st
			b.changed = next
			changed = true
		}
	}
	for _, e := range req.Events {
		if e.Seq == 0 {
			continue // never minted by a store; drop defensively
		}
		old, seen := s.events[e.Seq]
		switch {
		case !seen:
			s.events[e.Seq] = e
			s.eventSeq = insertSeq(s.eventSeq, e.Seq)
			s.indexEvent(e.Board, e.Seq)
			s.maxSeq = max(s.maxSeq, e.Seq)
			resp.NewEvents++
			changed = true
		case old != e:
			s.events[e.Seq] = e
			if old.Board != e.Board {
				s.moveEvent(e.Seq, old.Board, e.Board)
			}
			resp.UpdatedEvents++
			changed = true
		default:
			resp.DuplicateEvents++
		}
	}
	for _, t := range req.Transitions {
		if t.Seq == 0 {
			continue
		}
		if _, seen := s.transitions[t.Seq]; !seen {
			s.transitions[t.Seq] = t
			s.transSeq = insertSeq(s.transSeq, t.Seq)
			resp.NewTransitions++
			changed = true
		}
	}
	if req.Health != nil {
		hv := *req.Health
		if s.health == nil || !sameHealth(s.health, &hv) {
			changed = true
		}
		s.health = new(apiv1.HealthSummary)
		*s.health = hv
	}

	resp.Gaps = s.gaps()
	resp.NextSeq = s.nextSeq()
	if changed {
		h.gen.Store(next)
	}
	h.noteIngestLocked(resp, len(req.Boards))
	return resp, nil
}

// insertSeq inserts a seq that seqs does not hold, keeping seqs
// ascending; pushes arrive in seq order, so the common case is a plain
// append.
func insertSeq(seqs []uint64, seq uint64) []uint64 {
	n := len(seqs)
	if n == 0 || seqs[n-1] < seq {
		return append(seqs, seq)
	}
	i, _ := slices.BinarySearch(seqs, seq)
	return slices.Insert(seqs, i, seq)
}

// indexEvent adds seq to its board's event index.
func (s *source) indexEvent(board string, seq uint64) {
	seqs := s.byBoard[board]
	if seqs == nil {
		seqs = new([]uint64)
		s.byBoard[board] = seqs
	}
	*seqs = insertSeq(*seqs, seq)
}

// moveEvent moves seq from one board's event index to another's: an
// update that changed the event's board.
func (s *source) moveEvent(seq uint64, from, to string) {
	if seqs := s.byBoard[from]; seqs != nil {
		if i, found := slices.BinarySearch(*seqs, seq); found {
			*seqs = slices.Delete(*seqs, i, i+1)
		}
		if len(*seqs) == 0 {
			delete(s.byBoard, from)
		}
	}
	s.indexEvent(to, seq)
}

// sameHealth reports whether two health summaries are equal as
// reflect.DeepEqual finds them: a nil States differs from an empty one,
// and a NaN MeanSavings equals nothing.
func sameHealth(a, b *apiv1.HealthSummary) bool {
	return (a.States == nil) == (b.States == nil) && slices.Equal(a.States, b.States) &&
		a.Boards == b.Boards && a.Polls == b.Polls && a.Events == b.Events &&
		a.DroppedEvents == b.DroppedEvents && a.DedupedEvents == b.DedupedEvents &&
		a.Transitions == b.Transitions && a.Status == b.Status &&
		a.MeanSavings == b.MeanSavings && a.VirtualNow == b.VirtualNow
}

// Sources reports every source's standing, sorted by name.
func (h *Hub) Sources() []apiv1.HubSource {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]apiv1.HubSource, 0, len(h.names))
	for _, name := range h.names {
		s := h.sources[name]
		hs := apiv1.HubSource{
			Source:      s.name,
			Generation:  s.gen,
			VirtualNow:  s.vnow,
			Boards:      len(s.boards),
			Events:      len(s.events),
			Transitions: len(s.transitions),
			Pushes:      s.pushes,
			NextSeq:     s.nextSeq(),
			Gaps:        s.gaps(),
		}
		if s.health != nil {
			hs.Evicted = s.health.DroppedEvents
			hs.Deduped = s.health.DedupedEvents
		}
		out = append(out, hs)
	}
	return out
}

// BoardsSince returns the hub generation and the global board view of
// the boards that changed after generation since: ids namespaced
// "source/board", sources and boards each in sorted order. since 0, or
// one past the generation (it numbers another run's generations),
// returns every board. Only the returned boards are copied; the rest
// cost one generation compare each. The view is never nil, so an empty
// one renders "boards": [], as the fleet's does.
func (h *Hub) BoardsSince(since uint64) (uint64, []apiv1.BoardStatus) {
	h.mu.Lock()
	defer h.mu.Unlock()
	gen := h.gen.Load()
	if since > gen {
		since = 0
	}
	out := []apiv1.BoardStatus{}
	for _, name := range h.names {
		s := h.sources[name]
		for _, b := range s.sorted {
			if b.changed > since {
				st := b.status
				st.ID = s.name + "/" + st.ID
				out = append(out, st)
			}
		}
	}
	return gen, out
}

// BoardsJSON returns the hub generation and the /api/fleet document:
// every source's boards, ids namespaced "source/board".
func (h *Hub) BoardsJSON() (uint64, []byte, error) {
	gen, boards := h.BoardsSince(0)
	body, err := apiv1.MarshalBoards(boards)
	return gen, body, err
}

// BoardsDeltaJSON returns the hub generation and the /api/fleet?since=
// document: the boards whose status changed after hub generation since,
// or every board when since is past the generation. A since at the
// generation returns a nil body before any board is copied.
func (h *Hub) BoardsDeltaJSON(since uint64) (uint64, []byte, error) {
	if gen := h.Generation(); since == gen {
		return gen, nil, nil
	}
	gen, boards := h.BoardsSince(since)
	body, err := apiv1.MarshalBoardsDelta(gen, since, boards)
	return gen, body, err
}

// boardLocked resolves a namespaced "source/board" id. Caller holds h.mu.
func (h *Hub) boardLocked(id string) (*source, string, bool) {
	name, board, _ := strings.Cut(id, "/")
	s, ok := h.sources[name]
	if !ok {
		return nil, "", false
	}
	_, ok = s.boards[board]
	return s, board, ok
}

// HasBoard reports whether the hub holds the namespaced board id
// ("source/board").
func (h *Hub) HasBoard(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, _, ok := h.boardLocked(id)
	return ok
}

// EventsAPIv1 returns up to n of the most recent replicated events of a
// namespaced board ("source/board"), oldest first (n ≤ 0 means all).
// The source's board index holds the board's seqs, so a tail of n costs
// n lookups however many events the source holds.
func (h *Hub) EventsAPIv1(id string, n int) []apiv1.Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, board, ok := h.boardLocked(id)
	if !ok {
		return nil
	}
	var seqs []uint64
	if p := s.byBoard[board]; p != nil {
		seqs = *p
	}
	if n > 0 && len(seqs) > n {
		seqs = seqs[len(seqs)-n:]
	}
	if len(seqs) == 0 {
		return nil
	}
	out := make([]apiv1.Event, len(seqs))
	for i, seq := range seqs {
		out[i] = s.events[seq]
	}
	return out
}

// HealthAPIv1 merges every source's health summary into the global one.
// The status follows from the merged state counts by the fleet's own
// rule (fleet.StateCounts.Summarize), not from the sources' pushed
// statuses. VirtualNow is the laggiest source's clock — the horizon up
// to which the aggregate view is complete.
func (h *Hub) HealthAPIv1() apiv1.HealthSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out apiv1.HealthSummary
	var counts fleet.StateCounts
	var savings float64
	first := true
	for _, name := range h.names {
		s := h.sources[name]
		out.Boards += len(s.boards)
		out.Events += len(s.events)
		out.Transitions += len(s.transitions)
		if s.health != nil {
			out.Polls += s.health.Polls
			out.DroppedEvents += s.health.DroppedEvents
			out.DedupedEvents += s.health.DedupedEvents
			for _, sc := range s.health.States {
				counts.Add(sc.State, sc.Boards)
			}
			savings += s.health.MeanSavings * float64(s.health.Boards)
		}
		if first || s.vnow < out.VirtualNow {
			out.VirtualNow = s.vnow
		}
		first = false
	}
	counts.Summarize(&out)
	if out.Boards > 0 {
		out.MeanSavings = savings / float64(out.Boards)
	}
	return out
}

// ErrNoSource is returned for dump requests against unknown sources.
var ErrNoSource = errors.New("hub: no such source")

// WriteSourceDump renders one source's replicated state in the fleet's
// own dump format: the event store text, then "# health transitions",
// then the transition log — byte-identical to `xvolt-fleet -dump` on
// the source minus its header line, when no retention eviction trimmed
// the source between pushes.
func (h *Hub) WriteSourceDump(w io.Writer, sourceName string) error {
	h.mu.Lock()
	s, ok := h.sources[sourceName]
	if !ok {
		h.mu.Unlock()
		return ErrNoSource
	}
	events := make([]apiv1.Event, 0, len(s.eventSeq))
	for _, seq := range s.eventSeq {
		events = append(events, s.events[seq])
	}
	transitions := make([]apiv1.Transition, 0, len(s.transSeq))
	for _, seq := range s.transSeq {
		transitions = append(transitions, s.transitions[seq])
	}
	h.mu.Unlock()

	for _, e := range events {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "# health transitions"); err != nil {
		return err
	}
	for _, t := range transitions {
		if _, err := fmt.Fprintln(w, t); err != nil {
			return err
		}
	}
	return nil
}
