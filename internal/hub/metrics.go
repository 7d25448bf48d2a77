package hub

import (
	apiv1 "xvolt/api/v1"
	"xvolt/internal/obs"
)

// hubMetrics are the hub's ingest-path instruments. All fields are
// nil-safe obs instruments, so an unmetered hub pays only nil checks.
type hubMetrics struct {
	ingests     *obs.Counter
	eventsNew   *obs.Counter
	eventsUpd   *obs.Counter
	eventsDup   *obs.Counter
	transitions *obs.Counter
	boards      *obs.Counter
	resyncs     *obs.Counter
	sources     *obs.Gauge
	events      *obs.Gauge
	gaps        *obs.Gauge
}

// SetMetrics attaches a registry (nil reverts to unmetered). Safe to
// call at any time, including while ingesting.
func (h *Hub) SetMetrics(r *obs.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r == nil {
		h.m = hubMetrics{}
		return
	}
	h.m = hubMetrics{
		ingests: r.Counter("xvolt_hub_ingests_total",
			"Pushes accepted by POST /api/hub/ingest."),
		eventsNew: r.Counter("xvolt_hub_events_new_total",
			"Pushed events with a sequence number the hub had not seen."),
		eventsUpd: r.Counter("xvolt_hub_events_updated_total",
			"Pushed events that updated an existing sequence number (dedup merges propagating)."),
		eventsDup: r.Counter("xvolt_hub_events_duplicate_total",
			"Pushed events identical to the hub's copy (idempotent resends)."),
		transitions: r.Counter("xvolt_hub_transitions_new_total",
			"Pushed health transitions new to the hub."),
		boards: r.Counter("xvolt_hub_ingest_boards_total",
			"Board statuses carried by accepted pushes (a delta push carries only the boards changed since its baseline)."),
		resyncs: r.Counter("xvolt_hub_resyncs_total",
			"Delta pushes refused with 409 because the hub never ingested their baseline generation; each makes the source resend its full state."),
		sources: r.Gauge("xvolt_hub_sources",
			"Fleet daemons that have pushed to this hub."),
		events: r.Gauge("xvolt_hub_events",
			"Events replicated across all sources."),
		gaps: r.Gauge("xvolt_hub_gaps",
			"Sequence numbers never received beyond source-reported evictions — real loss."),
	}
}

// noteIngestLocked folds one accepted ingest's outcome, and the number
// of boards it carried, into the instruments. Caller holds h.mu.
func (h *Hub) noteIngestLocked(resp apiv1.IngestResponse, boards int) {
	h.m.ingests.Inc()
	h.m.boards.Add(float64(boards))
	h.m.eventsNew.Add(float64(resp.NewEvents))
	h.m.eventsUpd.Add(float64(resp.UpdatedEvents))
	h.m.eventsDup.Add(float64(resp.DuplicateEvents))
	h.m.transitions.Add(float64(resp.NewTransitions))
	h.m.sources.Set(float64(len(h.sources)))
	var events, gaps float64
	for _, name := range h.names {
		s := h.sources[name]
		events += float64(len(s.events))
		gaps += float64(s.gaps())
	}
	h.m.events.Set(events)
	h.m.gaps.Set(gaps)
}
