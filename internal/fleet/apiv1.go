// Converters from the fleet's internal types to the api/v1 wire schema.
// The apiv1 mirrors keep identical field order and tags, so encoding a
// converted value produces the same bytes the internal type used to
// serve — pinned by apiv1_test.go. The one deliberate difference: the
// wire always carries the state of a health-changed event, even when the
// state is healthy (the internal int-omitempty hid it), because the
// hub's text rendering needs it for dump parity.

package fleet

import (
	apiv1 "xvolt/api/v1"
)

// APIv1 converts one event to its wire form.
func (e Event) APIv1() apiv1.Event {
	out := apiv1.Event{
		Seq:    e.Seq,
		At:     e.At,
		LastAt: e.LastAt,
		Board:  e.Board,
		Kind:   e.Kind.String(),
		MV:     e.MV,
		Count:  e.Count,
		Msg:    e.Msg,
	}
	if e.Kind == HealthChanged || e.State != Healthy {
		out.State = e.State.String()
	}
	return out
}

// APIv1 converts one board status to its wire form.
func (b BoardStatus) APIv1() apiv1.BoardStatus {
	return apiv1.BoardStatus{
		ID:         b.ID,
		Corner:     b.Corner,
		Workload:   b.Workload,
		Core:       b.Core,
		State:      b.State.String(),
		FloorMV:    b.FloorMV,
		MarginMV:   b.MarginMV,
		VoltageMV:  b.VoltageMV,
		Polls:      b.Polls,
		Runs:       b.Runs,
		SDCs:       b.SDCs,
		CEs:        b.CEs,
		UEs:        b.UEs,
		ACs:        b.ACs,
		Boots:      b.Boots,
		Recoveries: b.Recoveries,
		Savings:    b.Savings,
		LastPoll:   b.LastPoll,
		Frequency:  int(b.Frequency),
	}
}

// APIv1 converts one health transition to its wire form.
func (t Transition) APIv1() apiv1.Transition {
	return apiv1.Transition{
		Seq:    t.Seq,
		At:     t.At,
		Board:  t.Board,
		From:   t.From.String(),
		To:     t.To.String(),
		Reason: t.Reason,
	}
}

// APIv1 converts the health summary to its wire form.
func (h HealthSummary) APIv1() apiv1.HealthSummary {
	out := apiv1.HealthSummary{
		Boards:        h.Boards,
		Polls:         h.Polls,
		Events:        h.Events,
		DroppedEvents: h.DroppedEvents,
		DedupedEvents: h.DedupedEvents,
		Transitions:   h.Transitions,
		Status:        h.Status,
		MeanSavings:   h.MeanSavings,
		VirtualNow:    h.VirtualNow,
	}
	for _, sc := range h.States {
		out.States = append(out.States, apiv1.StateCount{State: sc.State.String(), Boards: sc.Boards})
	}
	return out
}

// HealthAPIv1 returns the fleet's health summary in wire form.
func (m *Manager) HealthAPIv1() apiv1.HealthSummary { return m.Health().APIv1() }

// EventsAPIv1 returns up to n of the board's most recent retained
// events in wire form, oldest first (n ≤ 0 means all).
func (m *Manager) EventsAPIv1(id string, n int) []apiv1.Event {
	events := m.store.EventsFor(id, n)
	out := make([]apiv1.Event, len(events))
	for i, e := range events {
		out[i] = e.APIv1()
	}
	return out
}
