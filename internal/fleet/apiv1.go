// The fleet's one converter to the api/v1 wire schema. Board statuses,
// transitions and the health summary are api/v1 documents from the
// start; only the event keeps its typed kind and state, because the
// store journals them as integers. The wire always carries the state of
// a health-changed event, even when the state is healthy, because the
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
