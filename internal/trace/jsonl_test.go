package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{CampaignStart, CampaignEnd, StepStart, RunDone, SystemCrash, Recovery, Note, Kind(42)} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind parsed")
	}
	if _, err := ParseKind("kind(x)"); err == nil {
		t.Error("malformed kind(N) parsed")
	}
}

// Every trace event written as JSONL must re-parse into an equal Event —
// the durable log is only useful if the parsing phase can trust it.
func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: CampaignStart, Msg: "mcf/ref on TTT core 4 at 2400MHz"},
		{Seq: 2, Kind: StepStart, Msg: "mcf/ref core 4 step 905mV"},
		{Seq: 3, Kind: RunDone, Msg: `run 0 -> SDC+CE with "quotes" and a \ backslash`},
		{Seq: 4, Kind: SystemCrash, Msg: "system hang\nwith newline"},
		{Seq: 5, Kind: Recovery, Msg: "watchdog power-cycled the board"},
		{Seq: 6, Kind: Kind(42), Msg: "future kind"},
		{Seq: 7, Kind: CampaignEnd, Msg: ""},
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, e := range events {
		if err := sink.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if sink.Count() != len(events) || sink.Err() != nil {
		t.Fatalf("sink count/err = %d/%v", sink.Count(), sink.Err())
	}
	// One object per line.
	if lines := strings.Count(buf.String(), "\n"); lines != len(events) {
		t.Errorf("wrote %d lines, want %d", lines, len(events))
	}
	back, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, events)
	}
}

// Emitting through a Log with a JSONL sink attached streams every event,
// including ones the bounded buffer drops.
func TestLogToJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := New(2)
	l.SetSink(NewJSONLSink(&buf))
	l.Emit(Note, "n%d", 1)
	l.Emit(RunDone, "run %s", "ok")
	l.Emit(Note, "n3-overflows-buffer")
	back, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("sink captured %d events, want 3", len(back))
	}
	if back[1].Kind != RunDone || back[1].Msg != "run ok" || back[1].Seq != 2 {
		t.Errorf("event 2 = %+v", back[1])
	}
	if n := len(l.Events()); n != 2 {
		t.Errorf("buffer retained %d, want 2", n)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestJSONLSinkStickyError(t *testing.T) {
	fw := &failWriter{}
	sink := NewJSONLSink(fw)
	if err := sink.Write(Event{Seq: 1}); err == nil {
		t.Fatal("no error from failing writer")
	}
	// Later writes short-circuit on the sticky error without touching the
	// writer again.
	if err := sink.Write(Event{Seq: 2}); err == nil {
		t.Fatal("sticky error not returned")
	}
	if fw.n != 1 {
		t.Errorf("failing writer called %d times, want 1", fw.n)
	}
	if sink.Err() == nil || sink.Count() != 0 {
		t.Errorf("Err/Count = %v/%d", sink.Err(), sink.Count())
	}
}

func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = sink.Write(Event{Seq: uint64(g*50 + i), Kind: Note, Msg: "x"})
			}
		}(g)
	}
	wg.Wait()
	back, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 200 || sink.Count() != 200 {
		t.Errorf("concurrent writes = %d parsed / %d counted, want 200", len(back), sink.Count())
	}
}

// readJSONL decodes a -trace-out stream back into events, one JSON object
// a line.
func readJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return out, fmt.Errorf("jsonl event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// TestOpenJSONLCloserReportsFailures: the -trace-out closer returns the
// sink's sticky write error, or else the file's close error.
func TestOpenJSONLCloserReportsFailures(t *testing.T) {
	t.Run("write", func(t *testing.T) {
		sink, closeSink, err := OpenJSONL("-", &failWriter{})
		if err != nil {
			t.Fatal(err)
		}
		l := New(0)
		l.SetSink(sink)
		l.Emit(Note, "lost")
		if err := closeSink(); err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("closer = %v, want the write error", err)
		}
	})
	t.Run("close", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		sink, closeSink, err := OpenJSONL(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Write(Event{Seq: 1, Kind: Note, Msg: "kept"}); err != nil {
			t.Fatal(err)
		}
		if err := closeSink(); err != nil {
			t.Fatalf("first close: %v", err)
		}
		if err := closeSink(); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("closing twice = %v, want os.ErrClosed", err)
		}
		events, err := os.ReadFile(path)
		if err != nil || !strings.Contains(string(events), `"msg":"kept"`) {
			t.Fatalf("trace file = %q, %v", events, err)
		}
	})
}
