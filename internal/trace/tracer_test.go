package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock installs a settable clock on t and returns the setter.
func fakeClock(tr *Tracer) func(time.Duration) {
	at := new(time.Duration)
	var mu sync.Mutex
	tr.SetClock(func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return *at
	})
	return func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		*at = d
	}
}

func TestTracerParentLinks(t *testing.T) {
	tr := NewTracer(0, 1)
	set := fakeClock(tr)

	ctx, root := tr.StartSpan(context.Background(), "poll")
	root.SetAttr("board", "board-03")
	set(10 * time.Millisecond)
	cctx, child := tr.StartSpan(ctx, "runs")
	set(20 * time.Millisecond)
	_, grand := tr.StartSpan(cctx, "guardband")
	grand.End()
	child.End()
	set(30 * time.Millisecond)
	root.Eventf("committed %d", 7)
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Finish order: grand, child, root.
	g, c, r := spans[0], spans[1], spans[2]
	if r.Trace != c.Trace || c.Trace != g.Trace {
		t.Errorf("trace ids differ: %d %d %d", r.Trace, c.Trace, g.Trace)
	}
	if r.Parent != 0 || c.Parent != r.ID || g.Parent != c.ID {
		t.Errorf("parent chain wrong: root %+v child %+v grand %+v", r, c, g)
	}
	if r.Start != 0 || r.End != 30*time.Millisecond || r.Duration() != 30*time.Millisecond {
		t.Errorf("root timing %v..%v", r.Start, r.End)
	}
	if c.Start != 10*time.Millisecond || g.Start != 20*time.Millisecond {
		t.Errorf("child timings %v, %v", c.Start, g.Start)
	}
	if len(r.Attrs) != 1 || r.Attrs[0] != (Attr{"board", "board-03"}) {
		t.Errorf("attrs %+v", r.Attrs)
	}
	if len(r.Events) != 1 || r.Events[0].Msg != "committed 7" || r.Events[0].At != 30*time.Millisecond {
		t.Errorf("events %+v", r.Events)
	}
	if got := tr.TraceSpans(r.Trace); len(got) != 3 {
		t.Errorf("TraceSpans = %d spans", len(got))
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(0, 3) // keep traces 1, 4, 7, …
	for i := 0; i < 9; i++ {
		ctx, root := tr.StartSpan(context.Background(), "req")
		_, child := tr.StartSpan(ctx, "inner")
		if child.recorded != root.recorded {
			t.Errorf("iteration %d: child sampling diverged from root", i)
		}
		child.End()
		root.End()
	}
	kept, discarded := tr.SampleStats()
	if kept != 3 || discarded != 6 {
		t.Errorf("kept/discarded = %d/%d, want 3/6", kept, discarded)
	}
	if got := len(tr.Spans()); got != 6 { // 3 sampled traces × 2 spans
		t.Errorf("retained %d spans, want 6", got)
	}
}

func TestTracerRingBound(t *testing.T) {
	const max = 4
	for _, n := range []int{3, max, 10, 4*max + 1} {
		tr := NewTracer(max, 1)
		for i := 0; i < n; i++ {
			_, s := tr.StartSpan(context.Background(), "s")
			s.End()
		}
		kept := n
		if kept > max {
			kept = max
		}
		spans := tr.Spans()
		if len(spans) != kept {
			t.Fatalf("n=%d: retained %d, want %d", n, len(spans), kept)
		}
		// The tail survives, not the head, oldest first.
		for i, s := range spans {
			if want := uint64(n - kept + 1 + i); s.Trace != want {
				t.Errorf("n=%d: spans[%d].Trace = %d, want %d", n, i, s.Trace, want)
			}
		}
		if got := tr.TraceSpans(uint64(n)); len(got) != 1 || got[0].Trace != uint64(n) {
			t.Errorf("n=%d: TraceSpans(newest) = %+v", n, got)
		}
		if got, want := tr.Evicted(), uint64(n-kept); got != want {
			t.Errorf("n=%d: evicted = %d, want %d", n, got, want)
		}
	}
}

func TestTracerSinkExport(t *testing.T) {
	var b strings.Builder
	sink := NewJSONLSink(&b)
	tr := NewTracer(0, 1)
	fakeClock(tr)
	tr.SetSink(sink)

	ctx, root := tr.StartSpan(context.Background(), "poll")
	_, child := tr.StartSpan(ctx, "runs")
	child.End()
	root.End()

	events, err := readJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("exported %d events", len(events))
	}
	for i, e := range events {
		if e.Kind != SpanEnd {
			t.Errorf("event %d kind = %v", i, e.Kind)
		}
		if e.Span == nil {
			t.Fatalf("event %d has no span payload", i)
		}
	}
	if events[0].Span.Name != "runs" || events[1].Span.Name != "poll" {
		t.Errorf("span order: %q, %q", events[0].Span.Name, events[1].Span.Name)
	}
	if events[1].Span.ID != events[0].Span.Parent {
		t.Error("parent link lost through JSONL round trip")
	}
	if !strings.Contains(events[1].Msg, "poll trace=1 span=1") {
		t.Errorf("span end message %q", events[1].Msg)
	}
}

// Two tracers fed the same span sequence on the same fake clock emit
// identical span streams — the property the fleet's byte-identical
// trace acceptance rests on.
func TestTracerDeterministicUnderFakeClock(t *testing.T) {
	run := func() []Span {
		tr := NewTracer(0, 1)
		set := fakeClock(tr)
		for i := 0; i < 5; i++ {
			set(time.Duration(i) * time.Second)
			ctx, root := tr.StartSpan(context.Background(), "poll")
			root.SetAttr("i", "x")
			_, c := tr.StartSpan(ctx, "child")
			c.End()
			root.End()
		}
		return tr.Spans()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() || a[i].Start != b[i].Start {
			t.Errorf("span %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "x")
	s.SetAttr("k", "v")
	s.Eventf("e")
	s.End()
	s.End() // idempotent
	if s != nil {
		t.Error("nil tracer recorded a span")
	}
	if ctx != context.Background() {
		t.Error("nil tracer altered the context")
	}
	tr.SetClock(nil)
	tr.SetSink(nil)
	if tr.Spans() != nil || tr.Evicted() != 0 {
		t.Error("nil tracer not inert")
	}
	if k, d := tr.SampleStats(); k != 0 || d != 0 {
		t.Error("nil tracer stats")
	}
}

func TestTracerUnsampledMutatorsInert(t *testing.T) {
	tr := NewTracer(0, 2)
	_, keep := tr.StartSpan(context.Background(), "one") // trace 1: kept
	keep.End()
	ctx, drop := tr.StartSpan(context.Background(), "two") // trace 2: dropped
	drop.SetAttr("k", "v")
	drop.Eventf("e")
	drop.End()
	_, child := tr.StartSpan(ctx, "two.child")
	child.End()
	if got := len(tr.Spans()); got != 1 {
		t.Errorf("retained %d spans, want only the sampled root", got)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer(0, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartSpan(context.Background(), "r")
				_, c := tr.StartSpan(ctx, "c")
				c.Eventf("i=%d", i)
				c.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Errorf("retained %d spans, want 800", got)
	}
	seen := map[uint64]bool{}
	for _, s := range tr.Spans() {
		if s.ID != 0 && seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}
