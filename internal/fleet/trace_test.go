package fleet

import (
	"strings"
	"testing"
	"time"

	"xvolt/internal/obs"
	"xvolt/internal/trace"
)

// tracedRun runs a fleet with tracing + metrics + alerting attached, in
// Run calls of chunk polls, and returns the rendered span stream
// alongside the dump artifacts.
func tracedRun(t *testing.T, cfg Config, polls, chunk int) (spans []trace.Span, events, transitions string) {
	t.Helper()
	m := newTestManager(t, cfg)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	tr := trace.NewTracer(1<<16, 1)
	m.SetTracer(tr)
	engine := obs.NewAlertEngine(reg, m.Now)
	if err := engine.Add(AlertRules()...); err != nil {
		t.Fatal(err)
	}
	for done := 0; done < polls; done += chunk {
		m.Run(chunk)
	}
	engine.Eval()
	ev, trs := dump(t, m)
	return tr.Spans(), ev, trs
}

func renderSpans(spans []trace.Span) string {
	var b strings.Builder
	for _, s := range spans {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// guardbandAttrs renders the attributes of every guardband.decision span.
func guardbandAttrs(spans []trace.Span) string {
	var b strings.Builder
	for _, s := range spans {
		if s.Name != "guardband.decision" {
			continue
		}
		for _, a := range s.Attrs {
			b.WriteString(a.Key + "=" + a.Value + " ")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// The acceptance criterion: with tracing and alerting enabled, both the
// dump artifacts AND the span stream are byte-identical across worker
// counts. Across chunking, each guardband.decision span must carry the
// voltage its own decision set, even when the batch polls the board
// again afterwards.
func TestFleetTraceDeterministicAcrossWorkers(t *testing.T) {
	const polls = 120
	cfg1 := testConfig(23)
	cfg1.Workers = 1
	cfg8 := testConfig(23)
	cfg8.Workers = 8

	s1, ev1, tr1 := tracedRun(t, cfg1, polls, polls)
	s8, ev8, tr8 := tracedRun(t, cfg8, polls, polls)
	sc, evc, trc := tracedRun(t, cfg8, polls, 1)

	if evc != ev1 || trc != tr1 {
		t.Error("dumps differ between Run(1) chunks and one Run with tracing enabled")
	}
	if got, want := guardbandAttrs(sc), guardbandAttrs(s1); got != want || want == "" {
		t.Errorf("guardband.decision attributes depend on Run chunking:\nRun(1) chunks:\n%sone Run:\n%s", got, want)
	}

	if ev1 != ev8 {
		t.Error("event dumps differ across worker counts with tracing enabled")
	}
	if tr1 != tr8 {
		t.Error("transition dumps differ across worker counts with tracing enabled")
	}
	if len(s1) == 0 {
		t.Fatal("no spans recorded")
	}
	if got, want := renderSpans(s1), renderSpans(s8); got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Errorf("span streams diverge around byte %d:\n1 worker: …%s\n8 workers: …%s",
			i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
	}
}

func TestFleetSpanTree(t *testing.T) {
	spans, _, _ := tracedRun(t, testConfig(5), 200, 200)

	byName := map[string][]trace.Span{}
	byID := map[uint64]trace.Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.ID] = s
	}
	if len(byName["fleet.schedule"]) == 0 {
		t.Error("no fleet.schedule spans")
	}
	polls := byName["fleet.poll"]
	if len(polls) != 200 {
		t.Errorf("fleet.poll spans = %d, want one per poll", len(polls))
	}
	if len(byName["board.runs"]) != 200 {
		t.Errorf("board.runs spans = %d", len(byName["board.runs"]))
	}
	// Every child's parent must be a fleet.poll root of the same trace.
	for _, name := range []string{"board.runs", "health.transition", "guardband.decision"} {
		for _, s := range byName[name] {
			p, ok := byID[s.Parent]
			if !ok || p.Name != "fleet.poll" || p.Trace != s.Trace {
				t.Fatalf("%s span %d not parented to its fleet.poll root", name, s.ID)
			}
		}
	}
	// The controller acted at least once in this scenario, and each
	// decision carries its kind and margin.
	if len(byName["guardband.decision"]) == 0 {
		t.Error("no guardband.decision spans in 200 polls")
	}
	for _, s := range byName["guardband.decision"] {
		attrs := map[string]string{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["kind"] == "" || attrs["margin_mv"] == "" {
			t.Fatalf("guardband span attrs incomplete: %+v", s.Attrs)
		}
	}
	// Span timestamps live on the virtual clock: non-decreasing and far
	// from wall time.
	var last time.Duration
	for _, s := range polls {
		if s.Start < last {
			t.Fatalf("poll span start regressed: %v after %v", s.Start, last)
		}
		last = s.Start
	}
}

// Attaching the standard alert rules to a live fleet must evaluate
// cleanly and, in this degraded-prone scenario, move at least one rule
// out of inactive at some point.
func TestFleetAlertRulesEvaluate(t *testing.T) {
	m := newTestManager(t, testConfig(23))
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	engine := obs.NewAlertEngine(reg, m.Now)
	if err := engine.Add(AlertRules()...); err != nil {
		t.Fatal(err)
	}

	sawActive := false
	for i := 0; i < 20; i++ {
		m.Run(30)
		for _, a := range engine.Eval() {
			if a.State != obs.AlertInactive {
				sawActive = true
			}
		}
	}
	if engine.Evals() != 20 {
		t.Errorf("evals = %d", engine.Evals())
	}
	alerts := engine.Alerts()
	if len(alerts) != len(AlertRules()) {
		t.Fatalf("alerts = %d, want %d", len(alerts), len(AlertRules()))
	}
	// The polls counter exists, so the absence rule must not be firing.
	for _, a := range alerts {
		if a.Rule == "fleet-polls-absent" && a.State == obs.AlertFiring {
			t.Error("absence rule firing while polls are being recorded")
		}
	}
	if !sawActive {
		t.Log("no rule left inactive in this scenario (acceptable, but unusual)")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
