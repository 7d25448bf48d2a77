// Fleet telemetry: per-health-state board gauges (the Prometheus surface
// the acceptance criteria pin against the event store), event counters by
// kind, per-board rail/margin gauges, and the fleet's mean power savings.

package fleet

import "xvolt/internal/obs"

// perBoardGaugeLimit caps the per-board gauge label space: above this
// fleet size the board-labeled gauges are suppressed (a 100k-board fleet
// would mint 200k series per scrape), leaving the aggregate instruments
// as the telemetry surface.
const perBoardGaugeLimit = 128

// fleetMetrics are the manager's instruments; all nil (inert) until
// SetMetrics attaches a registry.
type fleetMetrics struct {
	polls       *obs.Counter
	runs        *obs.Counter
	reboots     *obs.Counter
	events      *obs.CounterVec // kind
	evicted     *obs.Counter    // events dropped by store retention
	transitions *obs.CounterVec // to-state
	stateBoards *obs.GaugeVec   // state → number of boards
	boardMV     *obs.GaugeVec   // board → operating rail mV
	boardMargin *obs.GaugeVec   // board → guardband margin mV
	savingsMean *obs.Gauge      // mean fractional power savings vs nominal
	boardCount  *obs.Gauge      // fleet size (denominator for ratio alerts)
	pollSeconds *obs.HDR        // wall time of one board poll (worker-side)
	dirtyBoards *obs.Gauge      // boards re-encoded in the last snapshot generation
}

// SetMetrics registers the fleet's telemetry on r and seeds every gauge.
// The per-state gauges are pre-seeded for
// every health state so a scrape always exposes the full (bounded)
// label space. Nil registry leaves the fleet unmetered.
func (m *Manager) SetMetrics(r *obs.Registry) {
	fm := fleetMetrics{
		polls: r.Counter("xvolt_fleet_polls_total",
			"Board polls executed across the fleet."),
		runs: r.Counter("xvolt_fleet_runs_total",
			"Benchmark runs executed by fleet polls."),
		reboots: r.Counter("xvolt_fleet_reboots_total",
			"Watchdog power cycles across the fleet."),
		events: r.CounterVec("xvolt_fleet_events_total",
			"Fleet events recorded, by kind (dedup multiplicities counted).", "kind"),
		evicted: r.Counter("xvolt_fleet_events_evicted_total",
			"Fleet events evicted by store retention (capacity or age) — real loss, unlike dedup merges."),
		transitions: r.CounterVec("xvolt_fleet_transitions_total",
			"Health-state transitions, by destination state.", "state"),
		stateBoards: r.GaugeVec("xvolt_fleet_boards",
			"Boards currently in each health state.", "state"),
		boardMV: r.GaugeVec("xvolt_fleet_board_voltage_mv",
			"Operating PMD rail voltage per board.", "board"),
		boardMargin: r.GaugeVec("xvolt_fleet_board_guardband_mv",
			"Guardband margin above the characterized floor per board.", "board"),
		savingsMean: r.Gauge("xvolt_fleet_power_savings_mean",
			"Mean fractional power savings across the fleet vs nominal rail."),
		boardCount: r.Gauge("xvolt_fleet_board_count",
			"Number of boards the fleet manages."),
		pollSeconds: r.HDR("xvolt_fleet_poll_seconds",
			"Wall-clock duration of one board health poll.", obs.HDROpts{}),
		dirtyBoards: r.Gauge("xvolt_fleet_snapshot_dirty_boards",
			"Boards whose snapshot segment was re-encoded last generation."),
	}
	for _, state := range States {
		fm.stateBoards.With(state.String())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m = fm
	m.publishGaugesLocked()
}

// publishGaugesLocked refreshes every gauge from the commit-time
// aggregates (stateCounts/savingsSum), so it costs O(states) per
// generation, not O(fleet) — at 100k boards the old walk burned the CPU
// four times a second under mu. Per-board gauges still walk the fleet,
// but only at or below perBoardGaugeLimit boards, which keeps both the
// walk and the scrape cardinality bounded.
func (m *Manager) publishGaugesLocked() {
	if len(m.boards) <= perBoardGaugeLimit {
		for _, b := range m.boards {
			m.m.boardMV.With(b.id).Set(float64(b.voltage()))
			m.m.boardMargin.With(b.id).Set(float64(b.gb.marginMV()))
		}
	}
	for _, state := range States {
		m.m.stateBoards.With(state.String()).Set(float64(m.stateCounts[state]))
	}
	m.m.boardCount.Set(float64(len(m.boards)))
	if len(m.boards) > 0 {
		m.m.savingsMean.Set(m.savingsSum / float64(len(m.boards)))
	}
}
