// Package trace provides the framework's structured event log: a bounded,
// concurrency-safe record of what a campaign did (voltage steps, runs,
// crashes, watchdog recoveries). The real framework's log files are what
// survive a crashed machine (§2.2.1 "Safe Data Collection"); this is their
// in-process equivalent, and the text dump mirrors the raw logs the
// parsing phase consumes.
//
// The in-memory buffer is a bounded head capture: once max events are
// retained, later events are counted as dropped without even paying for
// message formatting. Durable, complete capture is the job of a Sink
// (see SetSink and JSONLSink): every event streams to the sink as it is
// emitted, exactly like the paper's framework ships raw logs off the
// board before a crash can eat them.
package trace

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"xvolt/internal/obs"
)

// Kind classifies an event.
type Kind int

const (
	// CampaignStart marks the beginning of one (benchmark, core) sweep.
	CampaignStart Kind = iota
	// CampaignEnd marks its completion.
	CampaignEnd
	// StepStart marks one voltage step.
	StepStart
	// RunDone records one finished run and its classification.
	RunDone
	// SystemCrash records an unresponsive machine.
	SystemCrash
	// Recovery records a watchdog power cycle.
	Recovery
	// Note is free-form commentary.
	Note
	// SpanEnd carries one finished tracer span (hierarchical tracing);
	// the Event's Span field holds the payload.
	SpanEnd
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CampaignStart:
		return "campaign-start"
	case CampaignEnd:
		return "campaign-end"
	case StepStart:
		return "step"
	case RunDone:
		return "run"
	case SystemCrash:
		return "crash"
	case Recovery:
		return "recovery"
	case Note:
		return "note"
	case SpanEnd:
		return "span"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind inverts String, including the "kind(N)" form for values this
// version does not name — JSONL written by a newer framework still
// round-trips.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "campaign-start":
		return CampaignStart, nil
	case "campaign-end":
		return CampaignEnd, nil
	case "step":
		return StepStart, nil
	case "run":
		return RunDone, nil
	case "crash":
		return SystemCrash, nil
	case "recovery":
		return Recovery, nil
	case "note":
		return Note, nil
	case "span":
		return SpanEnd, nil
	}
	if inner, ok := strings.CutPrefix(s, "kind("); ok {
		if num, ok := strings.CutSuffix(inner, ")"); ok {
			n, err := strconv.Atoi(num)
			if err == nil {
				return Kind(n), nil
			}
		}
	}
	return 0, fmt.Errorf("trace: unknown kind %q", s)
}

// MarshalJSON encodes the kind as its name, keeping the JSONL schema
// readable and stable across reorderings of the enum.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Event is one log entry. Seq is a monotonically increasing sequence
// number (the log's logical clock). SpanEnd events additionally carry
// the finished span; the field is omitted (and ignored) for every other
// kind, so pre-span JSONL streams round-trip unchanged.
type Event struct {
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`
	Msg  string `json:"msg"`
	Span *Span  `json:"span,omitempty"`
}

// String renders like "000042 run bwaves/ref core4 885mV -> SDC".
func (e Event) String() string {
	return fmt.Sprintf("%06d %-14s %s", e.Seq, e.Kind, e.Msg)
}

// Sink receives every emitted event as it happens — the off-board stream
// of the paper's safe data collection. Write is called under the log's
// lock, so implementations must not call back into the log and should
// return quickly; errors are the sink's to surface (the log drops them).
type Sink interface {
	Write(Event) error
}

// Log is a bounded in-memory event log. The zero value is unusable; use
// New. A nil *Log is safe: all methods are no-ops.
type Log struct {
	mu     sync.Mutex
	seq    uint64
	events []Event
	max    int
	sink   Sink

	emitted *obs.CounterVec // by kind
	dropm   *obs.Counter
}

// New returns a log retaining up to max events (default 4096 if max ≤ 0).
func New(max int) *Log {
	if max <= 0 {
		max = 4096
	}
	return &Log{max: max}
}

// SetSink attaches (or, with nil, detaches) a streaming sink. Events
// emitted after the call are forwarded in order, even when the in-memory
// buffer is full. Nil-safe.
func (l *Log) SetSink(s Sink) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = s
}

// SetMetrics registers the log's telemetry on r: emitted events by kind
// and the dropped count. Nil-safe on both sides.
func (l *Log) SetMetrics(r *obs.Registry) {
	if l == nil {
		return
	}
	emitted := r.CounterVec("xvolt_trace_events_total",
		"Trace events emitted, by kind.", "kind")
	dropm := r.Counter("xvolt_trace_dropped_total",
		"Trace events dropped because the in-memory buffer was full.")
	l.mu.Lock()
	defer l.mu.Unlock()
	l.emitted = emitted
	l.dropm = dropm
}

// Emit appends a formatted event and streams it to the sink, if any.
// Once the buffer is full, events still stream to the sink but are no
// longer retained; with no sink attached the drop is counted before the
// message is ever formatted, so a saturated log costs no fmt work.
// Safe on a nil log.
func (l *Log) Emit(kind Kind, format string, args ...interface{}) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	l.emitted.With(kind.String()).Inc()
	full := len(l.events) >= l.max
	if full && l.sink == nil {
		l.dropm.Inc()
		return
	}
	e := Event{Seq: l.seq, Kind: kind, Msg: fmt.Sprintf(format, args...)}
	if l.sink != nil {
		// Sink errors are sticky on the sink (see JSONLSink.Err); the log
		// itself keeps going — losing telemetry must never stop a campaign.
		_ = l.sink.Write(e)
	}
	if full {
		l.dropm.Inc()
		return
	}
	l.events = append(l.events, e)
}

// Events returns a copy of the retained events in order. Nil-safe.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}
