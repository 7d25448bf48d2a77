package eventstore

import (
	"strconv"
	"testing"
	"time"
)

// BenchmarkEventStoreAppend measures the durable append path: encode,
// frame, and buffered write of one journaled event into the segmented
// log (dedup misses, so every op hits the full opAppend path).
func BenchmarkEventStoreAppend(b *testing.B) {
	dir := b.TempDir()
	log, err := OpenLog(dir, LogOptions{Capacity: 1 << 16, SegmentBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	boards := make([]string, 32)
	for i := range boards {
		boards[i] = "board-" + strconv.Itoa(i)
	}
	rec := Record{Kind: 2, State: 1, MV: 880, Msg: "undervolt step applied"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.At = time.Duration(i) * time.Millisecond
		rec.Board = boards[i%len(boards)]
		rec.MV = 880 - i%11
		if _, err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventStoreAppendMemory is the in-memory baseline for the
// same workload — the delta against BenchmarkEventStoreAppend is the
// journaling cost.
func BenchmarkEventStoreAppendMemory(b *testing.B) {
	m := NewMemory(1<<16, 0, 0)
	boards := make([]string, 32)
	for i := range boards {
		boards[i] = "board-" + strconv.Itoa(i)
	}
	rec := Record{Kind: 2, State: 1, MV: 880, Msg: "undervolt step applied"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.At = time.Duration(i) * time.Millisecond
		rec.Board = boards[i%len(boards)]
		rec.MV = 880 - i%11
		if _, err := m.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventStoreAppendAtCapacity measures the daemon's steady
// state: a store at the default capacity (4,096 records) holding 2,000
// boards' records, where every append misses dedup and evicts the
// oldest record. One op is one append, on either backend; the log's
// rotation and snapshot compaction run at their defaults.
func BenchmarkEventStoreAppendAtCapacity(b *testing.B) {
	const capacity, nBoards = 4096, 2000
	boards := make([]string, nBoards)
	for i := range boards {
		boards[i] = "board-" + strconv.Itoa(i)
	}
	// Consecutive records of one board differ in MV, so the dedup window
	// (the daemon's 3 s) finds the board's latest record and never merges.
	record := func(i int) Record {
		return Record{At: time.Duration(i) * time.Millisecond, Board: boards[i%nBoards],
			Kind: 2, State: 1, MV: 880 - (i/nBoards)%11, Msg: "undervolt step applied"}
	}
	run := func(b *testing.B, s Store) {
		n := 0
		for ; n < 2*capacity; n++ {
			if _, err := s.Append(record(n)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Append(record(n + i))
			if err != nil {
				b.Fatal(err)
			}
			if res.Evicted != 1 {
				b.Fatalf("append evicted %d records, want 1", res.Evicted)
			}
		}
	}
	b.Run("memory", func(b *testing.B) {
		run(b, NewMemory(capacity, 3*time.Second, 0))
	})
	b.Run("log", func(b *testing.B) {
		log, err := OpenLog(b.TempDir(), LogOptions{Capacity: capacity, DedupWindow: 3 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		run(b, log)
	})
}
