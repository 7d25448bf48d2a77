package trace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xvolt/internal/obs"
)

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		CampaignStart: "campaign-start", CampaignEnd: "campaign-end",
		StepStart: "step", RunDone: "run", SystemCrash: "crash",
		Recovery: "recovery", Note: "note",
	} {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.HasPrefix(Kind(42).String(), "kind(") {
		t.Error("unknown kind name wrong")
	}
}

func TestEmitAndEvents(t *testing.T) {
	l := New(10)
	l.Emit(Note, "hello %d", 42)
	l.Emit(RunDone, "run done")
	events := l.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Seq != 1 || events[1].Seq != 2 {
		t.Errorf("sequence numbers wrong: %+v", events)
	}
	if events[0].Msg != "hello 42" {
		t.Errorf("msg = %q", events[0].Msg)
	}
	if got := events[0].String(); !strings.Contains(got, "note") || !strings.Contains(got, "hello 42") {
		t.Errorf("event string = %q", got)
	}
}

func TestBounding(t *testing.T) {
	l := New(5)
	for i := 0; i < 12; i++ {
		l.Emit(Note, "e%d", i)
	}
	if n := len(l.Events()); n != 5 {
		t.Errorf("retained %d events, want 5", n)
	}
	// The buffer is a head capture: the first max events are retained,
	// later ones are counted as dropped (a sink captures everything).
	events := l.Events()
	if events[0].Msg != "e0" || events[4].Msg != "e4" {
		t.Errorf("wrong retained window: %+v", events)
	}
	// Sequence numbers keep counting across drops: the next retained-or-
	// streamed event would carry seq 13.
	l2 := New(5)
	for i := 0; i < 12; i++ {
		l2.Emit(Note, "x")
	}
	sink := &captureSink{}
	l2.SetSink(sink)
	l2.Emit(Note, "after drops")
	if got := sink.events[0].Seq; got != 13 {
		t.Errorf("post-drop seq = %d, want 13", got)
	}
}

// formatProbe counts how often its String method runs, proving that Emit
// skips formatting entirely for events that will be dropped.
type formatProbe struct{ calls *int32 }

func (p formatProbe) String() string {
	atomic.AddInt32(p.calls, 1)
	return "probe"
}

func TestDropSkipsFormatting(t *testing.T) {
	var calls int32
	p := formatProbe{calls: &calls}
	l := New(3)
	for i := 0; i < 10; i++ {
		l.Emit(Note, "%v", p)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Errorf("format ran %d times, want 3 (one per retained event)", got)
	}
	// With a sink attached the message IS needed, full buffer or not.
	l.SetSink(&captureSink{})
	l.Emit(Note, "%v", p)
	if got := atomic.LoadInt32(&calls); got != 4 {
		t.Errorf("format ran %d times with sink, want 4", got)
	}
}

// captureSink records every event it is handed.
type captureSink struct {
	mu     sync.Mutex
	events []Event
	err    error
}

func (s *captureSink) Write(e Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
	return s.err
}

func (s *captureSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

func TestSinkStreamsEverything(t *testing.T) {
	l := New(5)
	sink := &captureSink{}
	l.SetSink(sink)
	for i := 0; i < 12; i++ {
		l.Emit(Note, "e%d", i)
	}
	// The buffer bounds retention, not the stream: all 12 reach the sink.
	if sink.len() != 12 {
		t.Errorf("sink saw %d events, want 12", sink.len())
	}
	if n := len(l.Events()); n != 5 {
		t.Errorf("retained %d events, want 5", n)
	}
	for i, e := range sink.events {
		if e.Seq != uint64(i+1) || e.Msg != fmt.Sprintf("e%d", i) {
			t.Fatalf("sink event %d = %+v", i, e)
		}
	}
	// Detaching stops the stream.
	l.SetSink(nil)
	l.Emit(Note, "unseen")
	if sink.len() != 12 {
		t.Error("detached sink still receiving")
	}
	// A failing sink never stops Emit.
	l.SetSink(&captureSink{err: errors.New("disk full")})
	l.Emit(Note, "still fine")
}

func TestSetMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	l := New(2)
	l.SetMetrics(reg)
	l.Emit(Note, "a")
	l.Emit(RunDone, "b")
	l.Emit(Note, "dropped")
	snap := reg.Snapshot()
	if got := snap[`xvolt_trace_events_total{kind="note"}`]; got != 2 {
		t.Errorf("note events metric = %v, want 2", got)
	}
	if got := snap[`xvolt_trace_events_total{kind="run"}`]; got != 1 {
		t.Errorf("run events metric = %v, want 1", got)
	}
	if got := snap["xvolt_trace_dropped_total"]; got != 1 {
		t.Errorf("dropped metric = %v, want 1", got)
	}
	// Nil log and metric-less log stay inert.
	var nilLog *Log
	nilLog.SetMetrics(reg)
	nilLog.SetSink(&captureSink{})
}

func TestDefaultBound(t *testing.T) {
	l := New(0)
	if l.max != 4096 {
		t.Errorf("default max = %d", l.max)
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Emit(Note, "ignored")
	if l.Events() != nil {
		t.Error("nil log not inert")
	}
}

func TestConcurrentEmit(t *testing.T) {
	l := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Emit(Note, "x")
				l.Events()
			}
		}()
	}
	wg.Wait()
	if n := len(l.Events()); n != 800 {
		t.Errorf("lost concurrent events: %d", n)
	}
}
