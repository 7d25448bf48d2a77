// Hierarchical tracing of the fleet poll path. Each committed poll
// becomes one trace — a root fleet.poll span with board.runs,
// health.transition and guardband.decision children — and each Run batch
// emits a fleet.schedule span. Spans are built at commit time, in global
// schedule order under the manager lock, from the poll outcome alone
// (never the board's live state, which later polls of the same batch
// have already moved), and timestamped from the fleet's virtual clock,
// so the trace stream inherits the determinism contract: byte-identical
// across seeds, shard and worker counts. Across chunking only the
// per-batch fleet.schedule spans (and so the trace and span ids)
// differ; every poll's span tree carries the same attributes.

package fleet

import (
	"context"
	"strconv"
	"time"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/trace"
)

// SetTracer attaches (or, with nil, detaches) a tracer and points its
// clock at the fleet's committed virtual time. Safe to call while the
// fleet is running.
func (m *Manager) SetTracer(t *trace.Tracer) {
	t.SetClock(func() time.Duration { return time.Duration(m.vclock.Load()) })
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tracer = t
}

// traceSchedule emits one span per Run batch describing the slots drawn
// off the virtual schedule. Called between takeSlots and the worker
// pool, so the span order is deterministic.
func (m *Manager) traceSchedule(slots []pollSlot) {
	m.mu.Lock()
	t := m.tracer
	m.mu.Unlock()
	if t == nil || len(slots) == 0 {
		return
	}
	_, span := t.StartSpan(context.Background(), "fleet.schedule")
	span.SetAttr("polls", strconv.Itoa(len(slots)))
	span.SetAttr("first_due", apiv1.FormatAt(slots[0].due))
	span.SetAttr("last_due", apiv1.FormatAt(slots[len(slots)-1].due))
	span.End()
}

// traceOutcomeLocked turns one committed poll outcome into a span tree.
// Runs under the manager lock right after commitLocked, so the virtual
// clock already reads the poll's due time and trace/span ids are
// allocated in global commit order.
func (m *Manager) traceOutcomeLocked(o *pollOutcome) {
	t := m.tracer
	if t == nil {
		return
	}
	ctx, root := t.StartSpan(context.Background(), "fleet.poll")
	root.SetAttr("board", o.status.ID)
	root.SetAttr("due", apiv1.FormatAt(o.due))

	_, runs := t.StartSpan(ctx, "board.runs")
	runs.SetAttr("runs", strconv.Itoa(o.runs))
	if o.rebooted {
		runs.SetAttr("rebooted", "true")
	}
	for i := range o.events {
		e := &o.events[i]
		runs.Eventf("%s mv=%d %s", e.Kind, e.MV, e.Msg)
	}
	runs.End()

	if tr := o.transition; tr != nil {
		_, hs := t.StartSpan(ctx, "health.transition")
		hs.SetAttr("from", tr.From)
		hs.SetAttr("to", tr.To)
		hs.SetAttr("reason", tr.Reason)
		hs.End()
	}

	for i := range o.events {
		e := &o.events[i]
		if e.Kind != GuardbandWidened && e.Kind != GuardbandNarrowed {
			continue
		}
		_, gs := t.StartSpan(ctx, "guardband.decision")
		gs.SetAttr("kind", e.Kind.String())
		gs.SetAttr("margin_mv", strconv.Itoa(e.MV))
		gs.SetAttr("voltage_mv", strconv.Itoa(o.status.VoltageMV))
		gs.End()
	}

	root.End()
}
