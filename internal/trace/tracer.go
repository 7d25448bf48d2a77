// Hierarchical tracing: trace/span identifiers with parent links,
// context.Context propagation, per-span attributes and events, and a
// bounded in-memory buffer with head sampling. Where trace.Log answers
// "what happened", the tracer answers "what caused what": one fleet
// poll becomes a tree — schedule → board poll → health transition →
// guardband decision — and one HTTP request becomes a span whose
// attributes carry the route and status code.
//
// Time is injectable (SetClock): the fleet points the tracer at its
// virtual clock, so span timestamps — like the event store — are a pure
// function of (Config, seed) and byte-identical across worker counts.
// The default clock is process-relative wall time (the sanctioned
// time.Now reference below, allowlisted for xvolt-lint's detrand rule),
// which is what the HTTP daemons want.
//
// Finished spans also stream to an attached Sink as SpanEnd events, so
// the existing JSONL machinery (-trace-out, ReadJSONL) exports and
// replays span trees with no new plumbing.
package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// tnow is the tracer's single wall-clock reference; the default clock
// derives process-relative timestamps from it, and tests swap SetClock
// for a fake. Allowlisted for detrand like obs's span clock.
var tnow = time.Now

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanEvent is one timestamped annotation inside a span.
type SpanEvent struct {
	At  time.Duration `json:"at"`
	Msg string        `json:"msg"`
}

// Span is one finished region of a trace. Parent is 0 for roots.
type Span struct {
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"span"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	Events []SpanEvent   `json:"events,omitempty"`
}

// Duration is the span's elapsed time on the tracer clock.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// String renders a compact one-line form (the Msg of exported SpanEnd
// events).
func (s Span) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s trace=%d span=%d", s.Name, s.Trace, s.ID)
	if s.Parent != 0 {
		fmt.Fprintf(&b, " parent=%d", s.Parent)
	}
	fmt.Fprintf(&b, " dur=%v", s.Duration())
	for _, a := range s.Attrs {
		fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
	}
	return b.String()
}

// Tracer allocates ids, applies sampling, and buffers finished spans.
// Construct with NewTracer; a nil *Tracer is inert (StartSpan returns a
// no-op span).
type Tracer struct {
	mu        sync.Mutex
	clock     func() time.Duration
	max       int
	every     int // keep 1 of every `every` traces
	nextTrace uint64
	nextSpan  uint64
	spans     []Span // ring of the most recent finished spans, oldest at head once full
	head      int    // index of the oldest span once len(spans) == max
	evicted   uint64
	sampled   uint64 // traces kept
	discarded uint64 // traces sampled out
	sink      Sink
	sinkSeq   uint64
}

// NewTracer returns a tracer retaining up to max finished spans
// (default 4096 if max ≤ 0) and keeping one of every sampleEvery traces
// (≤ 1 keeps all). The default clock is process-relative wall time.
func NewTracer(max, sampleEvery int) *Tracer {
	if max <= 0 {
		max = 4096
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	start := tnow()
	return &Tracer{
		max:   max,
		every: sampleEvery,
		clock: func() time.Duration { return tnow().Sub(start) },
	}
}

// SetClock injects the span time source (nil restores the zero clock).
// The fleet points this at its virtual clock for deterministic traces.
// Nil-safe.
func (t *Tracer) SetClock(now func() time.Duration) {
	if t == nil {
		return
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = now
}

// SetSink attaches (or, with nil, detaches) a streaming sink receiving
// every finished sampled span as a SpanEnd event. Nil-safe.
func (t *Tracer) SetSink(s Sink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// FromContext returns the active span in ctx, if any.
func FromContext(ctx context.Context) (*ActiveSpan, bool) {
	a, ok := ctx.Value(ctxKey{}).(*ActiveSpan)
	return a, ok && a != nil
}

// ContextWith returns ctx carrying a as the active span.
func ContextWith(ctx context.Context, a *ActiveSpan) context.Context {
	return context.WithValue(ctx, ctxKey{}, a)
}

// StartSpan begins a span. With an active span in ctx the new span
// becomes its child (same trace, parent link); otherwise it roots a new
// trace, which is where the sampling decision is made — an unsampled
// root turns its whole tree into no-ops. The returned context carries
// the new span for further nesting. Nil-safe: a nil tracer returns ctx
// unchanged and an inert span.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	if parent, ok := FromContext(ctx); ok && parent.t == t {
		if !parent.recorded {
			// Whole trace sampled out: propagate the no-op without ids.
			a := &ActiveSpan{t: t}
			return ContextWith(ctx, a), a
		}
		t.mu.Lock()
		t.nextSpan++
		a := &ActiveSpan{t: t, recorded: true, s: Span{
			Trace:  parent.s.Trace,
			ID:     t.nextSpan,
			Parent: parent.s.ID,
			Name:   name,
			Start:  t.clock(),
		}}
		t.mu.Unlock()
		return ContextWith(ctx, a), a
	}

	t.mu.Lock()
	t.nextTrace++
	keep := (t.nextTrace-1)%uint64(t.every) == 0
	if !keep {
		t.discarded++
		t.mu.Unlock()
		a := &ActiveSpan{t: t}
		return ContextWith(ctx, a), a
	}
	t.sampled++
	t.nextSpan++
	a := &ActiveSpan{t: t, recorded: true, s: Span{
		Trace: t.nextTrace,
		ID:    t.nextSpan,
		Name:  name,
		Start: t.clock(),
	}}
	t.mu.Unlock()
	return ContextWith(ctx, a), a
}

// finish commits a finished span to the ring and the sink. Once the
// ring is full the newest span overwrites the oldest in place — live
// inspection wants the tail, not the head — so a finish is O(1)
// however many spans are retained.
func (t *Tracer) finish(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < t.max {
		t.spans = append(t.spans, s)
	} else {
		t.spans[t.head] = s
		t.head = (t.head + 1) % t.max
		t.evicted++
	}
	if t.sink != nil {
		t.sinkSeq++
		sp := s
		// Sink errors are the sink's to surface (sticky on JSONLSink);
		// tracing must never stop the traced work.
		_ = t.sink.Write(Event{Seq: t.sinkSeq, Kind: SpanEnd, Msg: sp.String(), Span: &sp})
	}
}

// Spans returns a copy of the retained finished spans, oldest first.
// Nil-safe (nil).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Span(nil), t.spans[t.head:]...)
	return append(out, t.spans[:t.head]...)
}

// TraceSpans returns the retained spans of one trace, oldest first.
// Nil-safe (nil).
func (t *Tracer) TraceSpans(traceID uint64) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Trace == traceID {
			out = append(out, s)
		}
	}
	return out
}

// Evicted reports how many finished spans the ring has dropped. Nil-safe.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// SampleStats reports how many traces were kept and discarded by the
// sampler. Nil-safe.
func (t *Tracer) SampleStats() (kept, discarded uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sampled, t.discarded
}

// ActiveSpan is an in-flight span. All methods are nil-safe and no-ops
// on unsampled spans; End is idempotent. An ActiveSpan must not be
// shared across goroutines (one span, one owner — children get their
// own via StartSpan).
type ActiveSpan struct {
	t        *Tracer
	recorded bool
	ended    bool
	s        Span
}

// SetAttr attaches a key/value attribute. Nil-safe.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil || !a.recorded || a.ended {
		return
	}
	a.s.Attrs = append(a.s.Attrs, Attr{Key: key, Value: value})
}

// Eventf appends a timestamped annotation. Nil-safe.
func (a *ActiveSpan) Eventf(format string, args ...interface{}) {
	if a == nil || !a.recorded || a.ended {
		return
	}
	a.t.mu.Lock()
	at := a.t.clock()
	a.t.mu.Unlock()
	a.s.Events = append(a.s.Events, SpanEvent{At: at, Msg: fmt.Sprintf(format, args...)})
}

// End stamps the span's end time and commits it to the tracer's buffer
// and sink. Idempotent; nil-safe.
func (a *ActiveSpan) End() {
	if a == nil || !a.recorded || a.ended {
		return
	}
	a.ended = true
	a.t.mu.Lock()
	a.s.End = a.t.clock()
	a.t.mu.Unlock()
	a.t.finish(a.s)
}
