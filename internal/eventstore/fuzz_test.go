package eventstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// fuzzOpts keeps every append of the reference journal to one frame: no
// eviction (capacity above the record count) and no age retention, so
// the whole frames of a cut journal are exactly its first records.
var fuzzOpts = LogOptions{DedupWindow: 2 * time.Second}

// pristineJournal is TestLogTornTailTorture's journal: genRecords(40)
// appended to a fresh log, as one segment's bytes.
func pristineJournal(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	log, err := OpenLog(dir, fuzzOpts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range genRecords(40) {
		if _, err := log.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// compactedSegment is a compacted log's only segment: one snapshot group
// (opSnap plus its opState frames).
func compactedSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	log, err := OpenLog(dir, fuzzOpts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range genRecords(25) {
		if _, err := log.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := log.Compact(); err != nil {
		tb.Fatal(err)
	}
	seg := log.activeIdx
	if err := log.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(seg)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// wholeFrames counts the complete frames at the start of data.
func wholeFrames(data []byte) int {
	n := 0
	for len(data) > 0 {
		_, next, err := nextFrame(data)
		if err != nil {
			break
		}
		data = next
		n++
	}
	return n
}

// FuzzLogRecover writes the fuzz bytes as a segment, alone or after the
// reference journal, and recovers it. OpenLog must not panic or allocate
// in proportion to a claimed length rather than to the input; a recovered
// log must reopen to the same records and stats, keep an append made
// after recovery, and, for a cut of the reference journal, hold exactly
// what the Memory backend holds after the journal's whole frames.
func FuzzLogRecover(f *testing.F) {
	pristine := pristineJournal(f)
	for _, cut := range []int{0, 1, 7, 8, 9, 100, len(pristine) / 2, len(pristine) - 1, len(pristine)} {
		f.Add(false, pristine[:cut])
	}
	f.Add(false, compactedSegment(f))
	f.Add(true, compactedSegment(f))
	f.Add(true, []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	// A snapshot header promising maxFramePayload records.
	f.Add(false, appendFrame(nil, []byte{opSnap, 0, 0, 0, 0, 0x80, 0x80, 0x40}))

	f.Fuzz(func(t *testing.T, afterJournal bool, tail []byte) {
		seg := tail
		if afterJournal {
			seg = append(append([]byte(nil), pristine...), tail...)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		log, err := OpenLog(dir, fuzzOpts)
		runtime.ReadMemStats(&after)
		if err != nil {
			return
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20+128*uint64(len(seg)) {
			t.Errorf("OpenLog of a %d-byte segment allocated %d bytes", len(seg), grew)
		}
		records, stats := log.Records(), log.Stats()

		if !afterJournal && bytes.HasPrefix(pristine, seg) {
			mem := NewMemory(fuzzOpts.Capacity, fuzzOpts.DedupWindow, fuzzOpts.RetainAge)
			for _, r := range genRecords(40)[:wholeFrames(seg)] {
				if _, err := mem.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if want := mem.Records(); len(want)+len(records) > 0 && !reflect.DeepEqual(want, records) {
				t.Fatalf("cut at %d: recovered %d records, Memory holds %d", len(seg), len(records), len(want))
			}
		}

		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenLog(dir, fuzzOpts)
		if err != nil {
			t.Fatalf("reopening a recovered log: %v", err)
		}
		if got := again.Records(); len(got)+len(records) > 0 && !reflect.DeepEqual(got, records) {
			t.Fatalf("reopen changed the records: %d, then %d", len(records), len(got))
		}
		if got := again.Stats(); got != stats {
			t.Fatalf("reopen changed the stats: %+v, then %+v", stats, got)
		}
		if _, err := again.Append(Record{At: time.Hour, Board: "post", Msg: "after-recovery"}); err != nil {
			t.Fatal(err)
		}
		want := again.Records()
		if err := again.Close(); err != nil {
			t.Fatal(err)
		}
		third, err := OpenLog(dir, fuzzOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer third.Close()
		if !reflect.DeepEqual(want, third.Records()) {
			t.Fatal("an append after recovery did not survive a reopen")
		}
	})
}

// TestLogCloseReportsWriteError: once the active segment stops taking
// writes, the failed append's error is sticky and Close returns it after
// still syncing and closing the segment.
func TestLogCloseReportsWriteError(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(3)
	if _, err := log.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(log.active.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := log.active.Close(); err != nil {
		t.Fatal(err)
	}
	log.active = ro
	_, werr := log.Append(recs[1])
	if werr == nil {
		t.Fatal("append to a read-only segment succeeded")
	}
	if _, err := log.Append(recs[2]); err != werr {
		t.Fatalf("later append returned %v, want the sticky %v", err, werr)
	}
	if err := log.Close(); err != werr {
		t.Fatalf("Close = %v, want the first write error %v", err, werr)
	}
	if err := ro.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Close left the active segment open (closing it again: %v)", err)
	}
}
