// Fleet event store: the typed record of what happened to every board —
// undervolts applied, SDCs observed, guardbands widened, boards rebooted,
// health transitions. Events are deduplicated (a board stuck in an SDC
// storm collapses into one event with a multiplicity) and retention-
// bounded by capacity and age.
//
// Since the eventstore refactor the Store here is a thin typed facade:
// the dedup ring itself lives in internal/eventstore, pluggable between
// the in-memory backend (NewStore) and the durable segmented log
// (OpenStore). Both apply identical dedup/retention, so switching
// backends never changes the retained events — the durability tests pin
// a replayed log against an in-memory run byte for byte.
//
// Time is injectable: the store stamps events through its clock hook, and
// the Manager points that hook at the fleet's virtual clock, so the store
// contents are a pure function of (Config, seed) — byte-identical across
// runs, which the determinism tests pin.

package fleet

import (
	"fmt"
	"io"
	"sync"
	"time"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/eventstore"
)

// EventKind types a fleet event.
type EventKind int

const (
	// UndervoltApplied records an operating point being programmed on a
	// board's rail (startup, after a guardband change, after a reboot).
	UndervoltApplied EventKind = iota
	// GuardbandWidened records the controller raising a board's margin
	// after a health degradation.
	GuardbandWidened
	// GuardbandNarrowed records the controller reclaiming margin after a
	// sustained healthy streak.
	GuardbandNarrowed
	// SDCObserved records a silent data corruption caught by output
	// comparison during a poll.
	SDCObserved
	// CEBurst records corrected-error activity (EDAC CE delta > 0).
	CEBurst
	// UEDetected records uncorrected-but-detected errors (EDAC UE).
	UEDetected
	// AppCrash records a benchmark killed by the hardware (non-zero exit).
	AppCrash
	// BoardRebooted records a watchdog power cycle after a system crash.
	BoardRebooted
	// HealthChanged records a health-state transition.
	HealthChanged
)

// String names the kind like a log tag.
func (k EventKind) String() string {
	switch k {
	case UndervoltApplied:
		return "undervolt-applied"
	case GuardbandWidened:
		return "guardband-widened"
	case GuardbandNarrowed:
		return "guardband-narrowed"
	case SDCObserved:
		return "sdc-observed"
	case CEBurst:
		return "ce-burst"
	case UEDetected:
		return "ue-detected"
	case AppCrash:
		return "app-crash"
	case BoardRebooted:
		return "board-rebooted"
	case HealthChanged:
		return "health-changed"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one fleet occurrence. Count is the dedup multiplicity: how many
// identical occurrences this entry stands for (≥ 1). At/LastAt bracket the
// first and latest occurrence on the fleet's virtual clock. Kind and State
// stay typed because the store journals them as integers; the wire form
// is APIv1's.
type Event struct {
	Seq    uint64
	At     time.Duration
	LastAt time.Duration
	Board  string
	Kind   EventKind
	State  State
	MV     int
	Count  int
	Msg    string
}

// String renders one line of the text dump, in the api/v1 rendering the
// hub also uses. The format is part of the determinism contract (two
// same-seed runs must dump byte-identical text), so it includes every
// field that distinguishes events.
func (e Event) String() string { return e.APIv1().String() }

// recordOf converts an un-stamped fleet event into a store record; the
// backend ignores Seq/Count/LastAt and assigns them itself.
func recordOf(e Event, at time.Duration) eventstore.Record {
	return eventstore.Record{
		At:    at,
		Board: e.Board,
		Kind:  int(e.Kind),
		State: int(e.State),
		MV:    e.MV,
		Msg:   e.Msg,
	}
}

// eventOf converts a retained store record back into the fleet's typed
// event.
func eventOf(r eventstore.Record) Event {
	return Event{
		Seq:    r.Seq,
		At:     r.At,
		LastAt: r.LastAt,
		Board:  r.Board,
		Kind:   EventKind(r.Kind),
		State:  State(r.State),
		MV:     r.MV,
		Count:  r.Count,
		Msg:    r.Msg,
	}
}

// Store is the fleet's typed event store: an eventstore backend plus the
// injectable virtual clock that stamps appends. Construct with NewStore
// (in-memory) or OpenStore (durable segmented log); a nil *Store is
// inert.
type Store struct {
	mu  sync.Mutex
	be  eventstore.Store
	now func() time.Duration
	err error // sticky backend append error
}

// NewStore returns an in-memory store retaining up to capacity events
// (default 4096 if capacity ≤ 0), collapsing identical consecutive
// per-board events within the dedup window, and dropping events older
// than maxAge relative to the newest (0 disables age retention).
func NewStore(capacity int, window, maxAge time.Duration) *Store {
	return wrapStore(eventstore.NewMemory(capacity, window, maxAge))
}

// OpenStore opens (creating if needed) a durable store journaled to a
// segmented log under dir, with the same dedup/retention semantics as
// NewStore. segmentBytes and maxSegments parameterize rotation and
// snapshot compaction (≤ 0 take the eventstore defaults).
func OpenStore(dir string, capacity int, window, maxAge time.Duration, segmentBytes, maxSegments int) (*Store, error) {
	be, err := eventstore.OpenLog(dir, eventstore.LogOptions{
		Capacity:     capacity,
		DedupWindow:  window,
		RetainAge:    maxAge,
		SegmentBytes: segmentBytes,
		MaxSegments:  maxSegments,
	})
	if err != nil {
		return nil, err
	}
	return wrapStore(be), nil
}

// wrapStore builds the typed facade over a backend.
func wrapStore(be eventstore.Store) *Store {
	return &Store{be: be, now: func() time.Duration { return 0 }}
}

// SetClock injects the time source used to stamp appended events. Nil
// restores the zero clock. Nil-safe.
func (s *Store) SetClock(now func() time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	s.now = now
}

// Append records one event, stamping it from the store clock and
// applying dedup and retention. It returns how many old events retention
// evicted on this append (the eviction metric's increment). A durable
// backend's write error is sticky and surfaced by Close, not here — the
// in-memory view keeps advancing either way. Nil-safe.
func (s *Store) Append(e Event) (evicted int) {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.be.Append(recordOf(e, s.now()))
	if err != nil && s.err == nil {
		s.err = err
	}
	return res.Evicted
}

// Events returns a copy of the retained events in order. Nil-safe.
func (s *Store) Events() []Event {
	if s == nil {
		return nil
	}
	recs := s.be.Records()
	out := make([]Event, len(recs))
	for i, r := range recs {
		out[i] = eventOf(r)
	}
	return out
}

// EventsSince returns, in wire form and in order, the retained events
// first seen or last merged at or after at: the tail a push since
// virtual time at must carry. Only the matching records are copied and
// converted. Nil-safe.
func (s *Store) EventsSince(at time.Duration) []apiv1.Event {
	if s == nil {
		return nil
	}
	recs := s.be.RecordsSince(at)
	if len(recs) == 0 {
		return nil
	}
	out := make([]apiv1.Event, len(recs))
	for i, r := range recs {
		out[i] = eventOf(r).APIv1()
	}
	return out
}

// EventsFor returns up to n most recent events of one board, oldest first
// (n ≤ 0 means all). Nil-safe.
func (s *Store) EventsFor(board string, n int) []Event {
	if s == nil {
		return nil
	}
	recs := s.be.RecordsFor(board, n)
	if len(recs) == 0 {
		return nil
	}
	out := make([]Event, len(recs))
	for i, r := range recs {
		out[i] = eventOf(r)
	}
	return out
}

// Len returns the retained event count. Nil-safe.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return s.be.Len()
}

// Dropped reports how many events retention evicted. Nil-safe.
func (s *Store) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.be.Stats().Evicted
}

// Deduped reports how many appends collapsed into an existing event —
// the count /api/fleet/health surfaces so the hub's gap detection can
// tell dedup from eviction loss. Nil-safe.
func (s *Store) Deduped() uint64 {
	if s == nil {
		return 0
	}
	return s.be.Stats().Merges
}

// Close releases the backend, syncing a durable journal. It returns the
// first backend append error, if one failed, ahead of the backend's own
// close error. Nil-safe.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	err := s.be.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return err
}

// WriteText dumps the retained events one per line — the byte-comparable
// form the determinism tests pin. Nil-safe.
func (s *Store) WriteText(w io.Writer) error {
	for _, e := range s.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}
