// Package apiv1 is xvolt's stable versioned wire schema: the JSON
// documents served under /api/* by xvolt-fleet and xvolt-hub daemons and
// consumed by client/v1 and the hub's ingest path.
//
// Compatibility rules (see DESIGN.md §16):
//
//   - Field order, names and omitempty-ness are frozen: servers encode
//     these structs with json.Encoder SetIndent("", " "), and the
//     resulting bytes are part of the determinism contract (ETag caches
//     and the fleet's stitched snapshot encoder both assume a fixed
//     serialization). The board documents (Boards, BoardsDelta) and
//     the hub ingest request (IngestRequest, which a pusher posts in
//     json.Marshal's compact form) have a codec without reflection on
//     their boards (codec.go) that writes these bytes and decodes them;
//     Marshal and encoding/json stay the oracle it is pinned against.
//   - Additions are append-only: new fields go at the end of a struct
//     (or are new endpoints); existing fields never change type, name or
//     position. Clients must ignore unknown fields.
//   - Enumerations (event kinds, health states, alert states) travel as
//     their lowercase string names, never as integers, so reordering an
//     internal enum can never corrupt the wire.
//
// The package is dependency-free (stdlib only) so external tooling can
// import it without pulling in the simulator.
package apiv1

import (
	"bytes"
	"encoding/json"
	"time"
)

// Marshal renders v in the canonical encoding servers write: the
// json.Encoder SetIndent("", " ") form, trailing newline included.
func Marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GenerationHeader is the response header carrying the fleet snapshot
// generation. Clients echo it as ?since= to receive wire deltas and use
// the generation-keyed ETag for If-None-Match revalidation.
const GenerationHeader = "X-Fleet-Generation"

// Event is one fleet event. Count is the dedup multiplicity: how many
// identical occurrences this entry stands for (≥ 1); At/LastAt bracket
// the first and latest occurrence on the source fleet's virtual clock.
// Seq is the per-source event sequence number — the hub's dedup and gap
// detection key on (source, seq).
type Event struct {
	Seq    uint64        `json:"seq"`
	At     time.Duration `json:"at"`
	LastAt time.Duration `json:"last_at,omitempty"`
	Board  string        `json:"board"`
	Kind   string        `json:"kind"`
	State  string        `json:"state,omitempty"`
	MV     int           `json:"mv,omitempty"`
	Count  int           `json:"count"`
	Msg    string        `json:"msg"`
}

// BoardStatus is a board's externally visible state, snapshotted at the
// board's latest committed poll.
type BoardStatus struct {
	ID         string        `json:"id"`
	Corner     string        `json:"corner"`
	Workload   string        `json:"workload"`
	Core       int           `json:"core"`
	State      string        `json:"state"`
	FloorMV    int           `json:"floor_mv"`
	MarginMV   int           `json:"margin_mv"`
	VoltageMV  int           `json:"voltage_mv"`
	Polls      int           `json:"polls"`
	Runs       int           `json:"runs"`
	SDCs       int           `json:"sdc_runs"`
	CEs        uint64        `json:"ce_events"`
	UEs        uint64        `json:"ue_events"`
	ACs        int           `json:"ac_runs"`
	Boots      int           `json:"boots"`
	Recoveries int           `json:"watchdog_recoveries"`
	Savings    float64       `json:"power_savings"`
	LastPoll   time.Duration `json:"last_poll"`
	Frequency  int           `json:"frequency_mhz"`
}

// Boards is the full /api/fleet document.
type Boards struct {
	Boards []BoardStatus `json:"boards"`
}

// BoardsDelta is the /api/fleet?since=S document: only the boards whose
// status committed after generation Since, stamped with the generation
// the delta brings the client up to.
type BoardsDelta struct {
	Generation uint64        `json:"generation"`
	Since      uint64        `json:"since"`
	Boards     []BoardStatus `json:"boards"`
}

// StateCount is one health state's board population.
type StateCount struct {
	State  string `json:"state"`
	Boards int    `json:"boards"`
}

// HealthSummary is the /api/fleet/health document. DroppedEvents counts
// events evicted by store retention (genuinely absent — the hub treats
// them as explained loss in gap detection); DedupedEvents counts appends
// collapsed into an existing event's multiplicity (not loss).
type HealthSummary struct {
	Boards        int           `json:"boards"`
	Polls         uint64        `json:"polls"`
	Events        int           `json:"events"`
	DroppedEvents uint64        `json:"dropped_events"`
	DedupedEvents uint64        `json:"deduped_events"`
	Transitions   int           `json:"transitions"`
	States        []StateCount  `json:"states"`
	Status        string        `json:"status"`
	MeanSavings   float64       `json:"mean_power_savings"`
	VirtualNow    time.Duration `json:"virtual_now"`
}

// BoardEvents is the /api/fleet/{board}/events document.
type BoardEvents struct {
	Board  string  `json:"board"`
	Events []Event `json:"events"`
}

// Transition is one recorded health-state change.
type Transition struct {
	Seq    uint64        `json:"seq"`
	At     time.Duration `json:"at"`
	Board  string        `json:"board"`
	From   string        `json:"from"`
	To     string        `json:"to"`
	Reason string        `json:"reason"`
}

// Status is the /api/status document (the single-machine study surface).
type Status struct {
	Chip          string  `json:"chip"`
	Responsive    bool    `json:"responsive"`
	BootCount     int     `json:"boot_count"`
	Recoveries    int     `json:"watchdog_recoveries"`
	PMDVoltageMV  int     `json:"pmd_voltage_mv"`
	SoCVoltageMV  int     `json:"soc_voltage_mv"`
	Frequencies   [4]int  `json:"pmd_frequencies_mhz"`
	PowerWatts    float64 `json:"power_watts"`
	TemperatureC  float64 `json:"temperature_c"`
	CampaignsDone int     `json:"campaigns_done"`
}

// Step is one voltage step of a published campaign.
type Step struct {
	VoltageMV int     `json:"voltage_mv"`
	Runs      int     `json:"runs"`
	SDC       int     `json:"sdc"`
	CE        int     `json:"ce"`
	UE        int     `json:"ue"`
	AC        int     `json:"ac"`
	SC        int     `json:"sc"`
	Severity  float64 `json:"severity"`
	Region    string  `json:"region"`
}

// Campaign is one published characterization campaign (/api/results
// serves a list of these).
type Campaign struct {
	Chip         string `json:"chip"`
	Benchmark    string `json:"benchmark"`
	Input        string `json:"input"`
	Core         int    `json:"core"`
	FrequencyMHz int    `json:"frequency_mhz"`
	SafeVminMV   int    `json:"safe_vmin_mv,omitempty"`
	CrashVmaxMV  int    `json:"crash_vmax_mv,omitempty"`
	Steps        []Step `json:"steps"`
}

// Alert is one alert rule's current evaluation. Value is null while the
// rule's expression has no defined value yet.
type Alert struct {
	Rule      string        `json:"rule"`
	Severity  string        `json:"severity,omitempty"`
	Kind      string        `json:"kind"`
	State     string        `json:"state"`
	Value     *float64      `json:"value"`
	Threshold float64       `json:"threshold"`
	Since     time.Duration `json:"since"`
	LastEval  time.Duration `json:"last_eval"`
	Help      string        `json:"help,omitempty"`
}

// AlertTransition is one alert state change.
type AlertTransition struct {
	Seq   uint64        `json:"seq"`
	At    time.Duration `json:"at"`
	Rule  string        `json:"rule"`
	To    string        `json:"to"`
	Value *float64      `json:"value"`
}

// Alerts is the /api/alerts document.
type Alerts struct {
	Alerts      []Alert           `json:"alerts"`
	Firing      int               `json:"firing"`
	Evals       uint64            `json:"evals"`
	Transitions []AlertTransition `json:"transitions"`
}

// IngestRequest is one xvolt-fleet → xvolt-hub push (POST
// /api/hub/ingest): the source's name, its snapshot generation and
// virtual clock at push time, the pushed boards and event/transition
// tails, and the source's health counters (so the hub's gap detection
// can tell retention loss from dedup). Events may overlap earlier
// pushes — the hub upserts by (source, seq), so resending a merged
// event's updated multiplicity is how dedup propagates.
//
// BoardsSince is the source generation the pushed boards are a delta
// against: Boards holds only the boards whose status committed after
// it. 0 means Boards is the full table. A hub that never ingested
// generation BoardsSince from the source (it restarted, or never heard
// of the source) refuses the push with 409 Conflict without applying
// any of it; the pusher then resends its full state.
type IngestRequest struct {
	Source      string         `json:"source"`
	Generation  uint64         `json:"generation"`
	VirtualNow  time.Duration  `json:"virtual_now"`
	Boards      []BoardStatus  `json:"boards,omitempty"`
	Events      []Event        `json:"events,omitempty"`
	Transitions []Transition   `json:"transitions,omitempty"`
	Health      *HealthSummary `json:"health,omitempty"`
	BoardsSince uint64         `json:"boards_since,omitempty"`
}

// IngestResponse reports what one push changed in the hub's view.
type IngestResponse struct {
	Source          string `json:"source"`
	NewEvents       int    `json:"new_events"`
	UpdatedEvents   int    `json:"updated_events"`
	DuplicateEvents int    `json:"duplicate_events"`
	NewTransitions  int    `json:"new_transitions"`
	// Gaps is the hub's cumulative count of sequence numbers it never saw
	// from this source beyond what the source's own eviction counter
	// explains — non-zero means real loss in transit.
	Gaps uint64 `json:"gaps"`
	// NextSeq is the lowest event seq the hub has not yet seen from this
	// source — a pusher may resume from it after a restart.
	NextSeq uint64 `json:"next_seq"`
}

// HubSource is one fleet daemon's standing in the hub's aggregate view
// (/api/hub/sources).
type HubSource struct {
	Source      string        `json:"source"`
	Generation  uint64        `json:"generation"`
	VirtualNow  time.Duration `json:"virtual_now"`
	Boards      int           `json:"boards"`
	Events      int           `json:"events"`
	Transitions int           `json:"transitions"`
	Pushes      uint64        `json:"pushes"`
	NextSeq     uint64        `json:"next_seq"`
	Evicted     uint64        `json:"evicted"`
	Deduped     uint64        `json:"deduped"`
	Gaps        uint64        `json:"gaps"`
}

// HubSources is the /api/hub/sources document.
type HubSources struct {
	Sources []HubSource `json:"sources"`
}
