package eventstore

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// shiftRing is the ring as it was before positions became absolute: it
// removes evicted records by shifting the retained ones down and
// rewriting every board index entry. It is kept only as the oracle that
// TestRingMatchesShiftingOracle holds the O(1)-eviction ring to.
type shiftRing struct {
	events      []Record
	seq         uint64
	cap         int
	window      time.Duration
	maxAge      time.Duration
	stats       Stats
	lastByBoard map[string]int
}

func newShiftRing(capacity int, window, maxAge time.Duration) *shiftRing {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	if window < 0 {
		window = 0
	}
	if maxAge < 0 {
		maxAge = 0
	}
	return &shiftRing{cap: capacity, window: window, maxAge: maxAge, lastByBoard: map[string]int{}}
}

func (r *shiftRing) append(rec Record) AppendResult {
	key := dedupKey{board: rec.Board, kind: rec.Kind, state: rec.State, mv: rec.MV, msg: rec.Msg}
	if idx, ok := r.lastByBoard[rec.Board]; ok && r.window > 0 && idx < len(r.events) {
		last := &r.events[idx]
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
	r.events = append(r.events, rec)
	r.lastByBoard[rec.Board] = len(r.events) - 1
	r.stats.Appends++
	evicted := r.retain(rec.At)
	return AppendResult{Seq: rec.Seq, Count: 1, Evicted: evicted}
}

func (r *shiftRing) retain(newest time.Duration) int {
	drop := 0
	if r.maxAge > 0 {
		for drop < len(r.events)-1 && r.events[drop].At < newest-r.maxAge {
			drop++
		}
	}
	if over := len(r.events) - drop - r.cap; over > 0 {
		drop += over
	}
	if drop == 0 {
		return 0
	}
	r.stats.Evicted += uint64(drop)
	r.events = append(r.events[:0], r.events[drop:]...)
	for board, idx := range r.lastByBoard {
		if idx < drop {
			delete(r.lastByBoard, board)
		} else {
			r.lastByBoard[board] = idx - drop
		}
	}
	return drop
}

func (r *shiftRing) records() []Record { return append([]Record(nil), r.events...) }

func (r *shiftRing) recordsFor(board string, n int) []Record {
	var out []Record
	for _, e := range r.events {
		if e.Board == board {
			out = append(out, e)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

func (r *shiftRing) restore(seq uint64, stats Stats, events []Record) {
	r.seq = seq
	r.stats = stats
	r.events = append(r.events[:0], events...)
	r.lastByBoard = make(map[string]int, len(events))
	for i, e := range r.events {
		r.lastByBoard[e.Board] = i
	}
}

func (r *shiftRing) applyMerge(seq uint64, count int, lastAt time.Duration) {
	for i := len(r.events) - 1; i >= 0; i-- {
		if r.events[i].Seq == seq {
			r.events[i].Count = count
			r.events[i].LastAt = lastAt
			r.stats.Merges++
			return
		}
		if r.events[i].Seq < seq {
			return
		}
	}
}

func (r *shiftRing) applyAppend(rec Record) {
	r.events = append(r.events, rec)
	if rec.Seq > r.seq {
		r.seq = rec.Seq
	}
	r.lastByBoard[rec.Board] = len(r.events) - 1
	r.stats.Appends++
}

func (r *shiftRing) applyEvict(n int) {
	if n <= 0 {
		return
	}
	if n > len(r.events) {
		n = len(r.events)
	}
	r.stats.Evicted += uint64(n)
	r.events = append(r.events[:0], r.events[n:]...)
	for board, idx := range r.lastByBoard {
		if idx < n {
			delete(r.lastByBoard, board)
		} else {
			r.lastByBoard[board] = idx - n
		}
	}
}

// TestRingMatchesShiftingOracle drives the ring and the shifting oracle
// through the same random operation streams — live appends with dedup
// merges landing on either side of an eviction, capacity and age
// retention, and the Log's replay operations (restore, applyAppend,
// applyMerge, applyEvict) — and requires identical results, retained
// records and counters after every step. It also checks that storage
// stays bounded: the backing array within twice the retained count and
// the board index within twice the capacity, however many distinct
// boards pass through.
func TestRingMatchesShiftingOracle(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		capacity := 1 + rng.Intn(12)
		window := time.Duration(rng.Intn(4)) * time.Second
		var maxAge time.Duration
		if rng.Intn(3) == 0 {
			maxAge = time.Duration(2+rng.Intn(8)) * time.Second
		}
		boards := 1 + rng.Intn(3*capacity)
		got := newRing(capacity, window, maxAge)
		want := newShiftRing(capacity, window, maxAge)
		var now time.Duration
		maxLive := 0
		randRecord := func() Record {
			now += time.Duration(rng.Intn(1500)) * time.Millisecond
			return Record{
				At:    now,
				Board: "b" + strconv.Itoa(rng.Intn(boards)),
				Kind:  rng.Intn(2),
				MV:    900 + 5*rng.Intn(2),
				Msg:   "m" + strconv.Itoa(rng.Intn(2)),
			}
		}
		for step := 0; step < 400; step++ {
			var op string
			switch k := rng.Intn(100); {
			case k < 80:
				op = "append"
				rec := randRecord()
				if g, w := got.append(rec), want.append(rec); g != w {
					t.Fatalf("trial %d step %d: append result %+v, oracle %+v", trial, step, g, w)
				}
			case k < 85:
				op = "applyAppend"
				rec := randRecord()
				rec.Seq = want.seq + 1 + uint64(rng.Intn(2))
				rec.Count = 1
				got.applyAppend(rec)
				want.applyAppend(rec)
			case k < 90:
				op = "applyMerge"
				seq := uint64(rng.Int63n(int64(want.seq) + 2))
				count, lastAt := 2+rng.Intn(5), now
				got.applyMerge(seq, count, lastAt)
				want.applyMerge(seq, count, lastAt)
			case k < 96:
				op = "applyEvict"
				n := rng.Intn(len(want.events)+3) - 1
				got.applyEvict(n)
				want.applyEvict(n)
			default:
				op = "restore"
				recs := want.records()
				recs = recs[rng.Intn(len(recs)+1):]
				stats := want.stats
				got.restore(want.seq, stats, recs)
				want.restore(want.seq, stats, recs)
			}
			if !reflect.DeepEqual(got.records(), want.records()) {
				t.Fatalf("trial %d step %d (%s): records\n got %+v\nwant %+v", trial, step, op, got.records(), want.records())
			}
			if got.stats != want.stats || got.seq != want.seq {
				t.Fatalf("trial %d step %d (%s): stats/seq %+v/%d, oracle %+v/%d",
					trial, step, op, got.stats, got.seq, want.stats, want.seq)
			}
			board := "b" + strconv.Itoa(rng.Intn(boards))
			n := rng.Intn(4)
			if g, w := got.recordsFor(board, n), want.recordsFor(board, n); !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d step %d (%s): recordsFor(%s, %d) = %+v, oracle %+v", trial, step, op, board, n, g, w)
			}
			live := len(got.retained())
			if got.head != 0 && got.head >= live {
				t.Fatalf("trial %d step %d (%s): %d evicted slots kept beside %d retained", trial, step, op, got.head, live)
			}
			// Replayed appends may briefly retain more than the capacity;
			// the index may then also hold one entry per retained board.
			maxLive = max(maxLive, live)
			if limit := max(2*capacity, maxLive+1); len(got.lastByBoard) > limit {
				t.Fatalf("trial %d step %d (%s): board index holds %d entries, limit %d", trial, step, op, len(got.lastByBoard), limit)
			}
		}
	}
}
