// Package eventstore is the fleet's durable event history: a pluggable
// store abstraction with two backends sharing one dedup/retention core.
// Memory is the bounded in-process ring the fleet has always run on;
// Log is an append-only segmented journal (CRC-framed records, segment
// rotation, snapshot compaction, crash-recovery replay) that survives
// daemon restarts — the persistence layer the paper's §5 control loop
// and the hub aggregation tier both read their history from.
//
// The determinism contract: a backend's retained records are a pure
// function of the Append call sequence (each record arrives already
// stamped with its virtual time). The ring applies dedup and retention
// identically in both backends; the Log additionally journals every
// state change it makes, so replaying any segment layout — one huge
// segment, many tiny ones, before or after compaction — reconstructs
// the exact retained state of the live run, byte for byte.
package eventstore

import "time"

// Record is the store's unit: one fleet event, already stamped on the
// owner's virtual clock. Kind and State are opaque small integers here —
// the fleet layer owns their enums and their JSON/text rendering; the
// store only persists and dedups them.
type Record struct {
	Seq    uint64
	At     time.Duration
	LastAt time.Duration
	Board  string
	Kind   int
	State  int
	MV     int
	Count  int
	Msg    string
}

// AppendResult describes what one Append did to the retained state.
type AppendResult struct {
	// Seq is the sequence number of the appended (or merge-target) record.
	Seq uint64
	// Merged reports the record collapsed into the board's previous entry
	// (dedup); Count/LastAt carry the merge target's updated values.
	Merged bool
	// Count and LastAt are the post-append values of the touched record.
	Count  int
	LastAt time.Duration
	// Evicted is how many old records retention dropped on this append.
	Evicted int
}

// Stats are a backend's lifetime counters.
type Stats struct {
	// Appends counts Append calls that created a new record.
	Appends uint64
	// Merges counts Append calls absorbed into an existing record (dedup).
	Merges uint64
	// Evicted counts records dropped by capacity or age retention.
	Evicted uint64
}

// Store is the pluggable event-store surface. Implementations are safe
// for concurrent use.
type Store interface {
	// Append records one event (dedup + retention applied), returning
	// what changed. The record's Seq, Count and LastAt inputs are
	// ignored; At must already be stamped by the caller.
	Append(rec Record) (AppendResult, error)
	// Records returns a copy of the retained records in order.
	Records() []Record
	// RecordsSince returns a copy of the retained records first seen or
	// last merged at or after at (At or LastAt ≥ at), in order: what
	// changed since a reader's last look, since a dedup merge always
	// advances LastAt.
	RecordsSince(at time.Duration) []Record
	// RecordsFor returns up to n most recent records of one board,
	// oldest first (n ≤ 0 means all).
	RecordsFor(board string, n int) []Record
	// Len returns the retained record count.
	Len() int
	// Stats returns the lifetime counters.
	Stats() Stats
	// Close releases the backend (flushes and syncs durable ones).
	Close() error
}

// dedupKey is the identity under which consecutive per-board records
// collapse.
type dedupKey struct {
	board string
	kind  int
	state int
	mv    int
	msg   string
}

// ring is the shared dedup/retention core. It is not goroutine-safe;
// backends wrap it in their own locking. Both backends run the exact
// same ring code, which is what makes their retained state identical
// under identical Append sequences.
//
// Positions are absolute: the record at events[i] sits at position
// off+i for as long as it is retained, and lastByBoard holds positions,
// not indices. Eviction only advances head, so it touches neither the
// records nor the board index; evict reclaims the evicted prefix
// events[:head] once it is at least as long as the retained tail, which
// keeps the cost amortized O(1) per append and the backing array within
// twice the retained count.
type ring struct {
	events      []Record // events[head:] are retained, oldest first
	head        int
	off         uint64 // absolute position of events[0]
	seq         uint64
	cap         int
	window      time.Duration // dedup window (0 disables)
	maxAge      time.Duration // age retention (0 disables)
	stats       Stats
	lastByBoard map[string]uint64 // board → position of its latest record; stale once evicted
}

// defaultCapacity bounds a ring constructed with capacity ≤ 0.
const defaultCapacity = 4096

func newRing(capacity int, window, maxAge time.Duration) ring {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	if window < 0 {
		window = 0
	}
	if maxAge < 0 {
		maxAge = 0
	}
	return ring{cap: capacity, window: window, maxAge: maxAge,
		lastByBoard: map[string]uint64{}}
}

// retained returns the retained records in order, aliasing the ring.
func (r *ring) retained() []Record { return r.events[r.head:] }

// latest returns the board's latest retained record.
func (r *ring) latest(board string) (*Record, bool) {
	pos, ok := r.lastByBoard[board]
	if !ok || pos < r.off+uint64(r.head) {
		return nil, false
	}
	return &r.events[pos-r.off], true
}

// push appends a sequenced record and indexes it as its board's latest.
// The board index keeps stale entries for boards whose records were all
// evicted; push sweeps them once the index reaches twice the capacity,
// so the index stays bounded however many distinct boards pass through.
func (r *ring) push(rec Record) {
	if _, known := r.lastByBoard[rec.Board]; !known && len(r.lastByBoard) >= 2*r.cap {
		base := r.off + uint64(r.head)
		for board, pos := range r.lastByBoard {
			if pos < base {
				delete(r.lastByBoard, board)
			}
		}
	}
	r.lastByBoard[rec.Board] = r.off + uint64(len(r.events))
	r.events = append(r.events, rec)
}

// evict drops the n oldest retained records (n ≤ retained count),
// sliding the retained tail down to the front of the backing array when
// the dropped prefix has grown as long as the tail.
func (r *ring) evict(n int) {
	r.head += n
	r.stats.Evicted += uint64(n)
	if r.head > 0 && r.head >= len(r.events)-r.head {
		kept := copy(r.events, r.events[r.head:])
		clear(r.events[kept:])
		r.events = r.events[:kept]
		r.off += uint64(r.head)
		r.head = 0
	}
}

// append folds one stamped record in: merge into the board's latest
// entry when inside the dedup window, otherwise assign the next seq,
// append, and apply retention.
func (r *ring) append(rec Record) AppendResult {
	if last, ok := r.latest(rec.Board); ok && r.window > 0 {
		key := dedupKey{board: rec.Board, kind: rec.Kind, state: rec.State, mv: rec.MV, msg: rec.Msg}
		lastKey := dedupKey{board: last.Board, kind: last.Kind, state: last.State, mv: last.MV, msg: last.Msg}
		ref := last.LastAt
		if ref == 0 {
			ref = last.At
		}
		if lastKey == key && rec.At-ref <= r.window {
			last.Count++
			last.LastAt = rec.At
			r.stats.Merges++
			return AppendResult{Seq: last.Seq, Merged: true, Count: last.Count, LastAt: last.LastAt}
		}
	}
	r.seq++
	rec.Seq = r.seq
	rec.Count = 1
	rec.LastAt = 0
	r.push(rec)
	r.stats.Appends++
	evicted := r.retain(rec.At)
	return AppendResult{Seq: rec.Seq, Count: 1, Evicted: evicted}
}

// retain applies capacity and age retention after an append, returning
// how many records it dropped.
func (r *ring) retain(newest time.Duration) int {
	live := r.retained()
	drop := 0
	if r.maxAge > 0 {
		for drop < len(live)-1 && live[drop].At < newest-r.maxAge {
			drop++
		}
	}
	if over := len(live) - drop - r.cap; over > 0 {
		drop += over
	}
	if drop > 0 {
		r.evict(drop)
	}
	return drop
}

// records returns a copy of the retained records.
func (r *ring) records() []Record {
	return append([]Record(nil), r.retained()...)
}

// recordsSince copies the retained records with At or LastAt ≥ at.
// It filters the ring in place: one pass counts the matches, a second
// copies exactly those, so a reader whose tail is empty copies nothing.
//
//xvolt:hotpath push gather; every hub push filters the retained ring here
func (r *ring) recordsSince(at time.Duration) []Record {
	live := r.retained()
	n := 0
	for i := range live {
		if live[i].At >= at || live[i].LastAt >= at {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	for i := range live {
		if live[i].At >= at || live[i].LastAt >= at {
			out = append(out, live[i])
		}
	}
	return out
}

// recordsFor filters one board's records, keeping the n most recent.
func (r *ring) recordsFor(board string, n int) []Record {
	var out []Record
	for _, e := range r.retained() {
		if e.Board == board {
			out = append(out, e)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// restore replaces the ring's state wholesale — the Log's snapshot
// recovery path. Events must already be in order; the board index is
// rebuilt.
func (r *ring) restore(seq uint64, stats Stats, events []Record) {
	r.seq = seq
	r.stats = stats
	clear(r.events)
	r.events = append(r.events[:0], events...)
	r.head, r.off = 0, 0
	r.lastByBoard = make(map[string]uint64, len(events))
	for i, e := range r.events {
		r.lastByBoard[e.Board] = uint64(i)
	}
}

// applyMerge replays a journaled dedup merge onto the record with the
// given seq. Missing seqs are ignored (the record was evicted after the
// merge was journaled — replay of a later eviction op removes it too,
// but compaction snapshots may legitimately re-order our view).
func (r *ring) applyMerge(seq uint64, count int, lastAt time.Duration) {
	live := r.retained()
	for i := len(live) - 1; i >= 0; i-- {
		if live[i].Seq == seq {
			live[i].Count = count
			live[i].LastAt = lastAt
			r.stats.Merges++
			return
		}
		if live[i].Seq < seq {
			return
		}
	}
}

// applyAppend replays a journaled append: the record arrives with its
// live-run seq already assigned.
func (r *ring) applyAppend(rec Record) {
	r.push(rec)
	if rec.Seq > r.seq {
		r.seq = rec.Seq
	}
	r.stats.Appends++
}

// applyEvict replays a journaled retention drop of the n oldest records.
func (r *ring) applyEvict(n int) {
	if n <= 0 {
		return
	}
	if live := len(r.events) - r.head; n > live {
		n = live
	}
	r.evict(n)
}
