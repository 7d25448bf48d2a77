package fleet

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"xvolt/internal/obs"
)

// testConfig builds a small mixed-corner fleet tuned so the closed loop
// actually exercises: single-run confirmation makes characterization
// optimistic on some boards (the paper's sampling problem), and MinSteps 0
// lets the controller narrow all the way onto the characterized floor.
func testConfig(seed int64) Config {
	return Config{
		Boards:      6,
		Seed:        seed,
		Workers:     4,
		RunsPerPoll: 2,
		ConfirmRuns: 1,
		StoreCap:    1 << 14,
		Guardband: GuardbandPolicy{
			InitialSteps:    1,
			MinSteps:        0,
			WidenDegraded:   1,
			WidenUnhealthy:  2,
			WidenRecovering: 3,
			NarrowAfter:     4,
		},
	}
}

// dump renders the two byte-comparable artifacts of a manager.
func dump(t *testing.T, m *Manager) (events, transitions string) {
	t.Helper()
	var ev, tr strings.Builder
	if err := m.Store().WriteText(&ev); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteTransitions(&tr); err != nil {
		t.Fatal(err)
	}
	return ev.String(), tr.String()
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFleetDeterminism(t *testing.T) {
	const polls = 120
	m1 := newTestManager(t, testConfig(11))
	m2 := newTestManager(t, testConfig(11))
	m1.Run(polls)
	m2.Run(polls)

	ev1, tr1 := dump(t, m1)
	ev2, tr2 := dump(t, m2)
	if ev1 != ev2 {
		t.Errorf("same-seed event stores differ:\n--- run1 ---\n%s--- run2 ---\n%s", ev1, ev2)
	}
	if tr1 != tr2 {
		t.Errorf("same-seed transition logs differ:\n--- run1 ---\n%s--- run2 ---\n%s", tr1, tr2)
	}

	// The loop must actually exercise: events beyond the initial
	// undervolts, and at least one health transition.
	if m1.Store().Len() <= m1.HealthAPIv1().Boards {
		t.Errorf("store holds only the startup events (%d)", m1.Store().Len())
	}
	if len(m1.Transitions()) == 0 {
		t.Error("no health transitions occurred; the loop is inert")
	}

	// A different seed tells a different story.
	m3 := newTestManager(t, testConfig(12))
	m3.Run(polls)
	ev3, _ := dump(t, m3)
	if ev3 == ev1 {
		t.Error("different seeds produced identical event stores")
	}
}

func TestFleetWorkerCountInvariance(t *testing.T) {
	const polls = 100
	cfgSerial := testConfig(7)
	cfgSerial.Workers = 1
	cfgWide := testConfig(7)
	cfgWide.Workers = 8

	m1 := newTestManager(t, cfgSerial)
	m2 := newTestManager(t, cfgWide)
	m1.Run(polls)
	m2.Run(polls)

	ev1, tr1 := dump(t, m1)
	ev2, tr2 := dump(t, m2)
	if ev1 != ev2 {
		t.Error("event store depends on worker count")
	}
	if tr1 != tr2 {
		t.Error("transition log depends on worker count")
	}
}

func TestFleetChunkingInvariance(t *testing.T) {
	mWhole := newTestManager(t, testConfig(7))
	mWhole.Run(90)

	mChunked := newTestManager(t, testConfig(7))
	mChunked.Run(17)
	mChunked.Run(40)
	mChunked.Run(33)

	ev1, tr1 := dump(t, mWhole)
	ev2, tr2 := dump(t, mChunked)
	if ev1 != ev2 {
		t.Error("Run(90) and Run(17)+Run(40)+Run(33) diverge")
	}
	if tr1 != tr2 {
		t.Error("transition log depends on Run chunking")
	}
	if mWhole.Polled() != 90 || mChunked.Polled() != 90 {
		t.Errorf("polled = %d / %d, want 90", mWhole.Polled(), mChunked.Polled())
	}
}

func TestFleetScheduleProperties(t *testing.T) {
	m := newTestManager(t, testConfig(3))
	m.Run(60)

	// Commit order is schedule order: event stamps never go backwards.
	var prev time.Duration
	for _, e := range m.Store().Events() {
		if e.At < prev {
			t.Fatalf("event %d stamped %v after %v", e.Seq, e.At, prev)
		}
		prev = e.At
	}
	if m.Now() < prev {
		t.Errorf("virtual now %v behind last event %v", m.Now(), prev)
	}

	// Every board gets polled: with ±25%% jitter around a common base
	// interval no board can starve.
	for _, s := range m.Boards() {
		if s.Polls == 0 {
			t.Errorf("%s never polled", s.ID)
		}
		if s.Runs != s.Polls*2 {
			t.Errorf("%s runs = %d, want %d", s.ID, s.Runs, s.Polls*2)
		}
	}
}

func TestFleetHealthSummaryConsistency(t *testing.T) {
	m := newTestManager(t, testConfig(11))
	m.Run(120)

	h := m.HealthAPIv1()
	boards := m.Boards()
	if h.Boards != len(boards) {
		t.Fatalf("summary boards = %d, want %d", h.Boards, len(boards))
	}

	fromStatus := map[string]int{}
	for _, s := range boards {
		fromStatus[s.State]++
	}
	total := 0
	for _, sc := range h.States {
		if sc.Boards != fromStatus[sc.State] {
			t.Errorf("state %v: summary %d, status table %d", sc.State, sc.Boards, fromStatus[sc.State])
		}
		total += sc.Boards
	}
	if total != h.Boards {
		t.Errorf("state counts sum to %d, want %d", total, h.Boards)
	}

	wantStatus := "ok"
	switch {
	case fromStatus["unhealthy"] > 0:
		wantStatus = "unhealthy"
	case fromStatus["degraded"] > 0 || fromStatus["recovering"] > 0:
		wantStatus = "degraded"
	}
	if h.Status != wantStatus {
		t.Errorf("status = %q, want %q", h.Status, wantStatus)
	}
	if h.Polls != 120 || h.Events != m.Store().Len() {
		t.Errorf("summary polls/events = %d/%d", h.Polls, h.Events)
	}
	if h.MeanSavings <= 0 {
		t.Errorf("mean savings = %v, want > 0 (boards run below nominal)", h.MeanSavings)
	}
}

// TestFleetMetricsAgreeWithStore pins the acceptance criterion: the
// per-state Prometheus gauges must agree with a replay of the event
// store's health-changed events, and the event counters with the store's
// multiplicity tallies.
func TestFleetMetricsAgreeWithStore(t *testing.T) {
	m := newTestManager(t, testConfig(11))
	r := obs.NewRegistry()
	m.SetMetrics(r)
	m.Run(120)

	snap := r.Snapshot()

	// Replay the store: all boards start healthy; each health-changed
	// event moves its board.
	state := map[string]State{}
	for _, s := range m.Boards() {
		state[s.ID] = Healthy
	}
	for _, e := range m.Store().Events() {
		if e.Kind == HealthChanged {
			state[e.Board] = e.State
		}
	}
	var replayed [numStates]int
	for _, st := range state {
		replayed[st]++
	}
	for _, st := range States {
		key := fmt.Sprintf("xvolt_fleet_boards{state=%q}", st)
		if got := snap[key]; int(got) != replayed[st] {
			t.Errorf("%s = %v, replayed store says %d", key, got, replayed[st])
		}
	}

	// Event counters: the initial per-board undervolts predate SetMetrics,
	// so the undervolt counter trails the store by exactly Boards.
	for _, k := range []EventKind{GuardbandWidened, GuardbandNarrowed, SDCObserved,
		CEBurst, UEDetected, AppCrash, BoardRebooted, HealthChanged} {
		key := fmt.Sprintf("xvolt_fleet_events_total{kind=%q}", k)
		if got, want := snap[key], float64(m.Store().CountKind(k)); got != want {
			t.Errorf("%s = %v, store counts %v", key, got, want)
		}
	}
	key := fmt.Sprintf("xvolt_fleet_events_total{kind=%q}", UndervoltApplied)
	if got, want := snap[key], float64(m.Store().CountKind(UndervoltApplied)-m.HealthAPIv1().Boards); got != want {
		t.Errorf("%s = %v, want %v (store minus startup events)", key, got, want)
	}

	if got := snap["xvolt_fleet_polls_total"]; got != float64(m.Polled()) {
		t.Errorf("polls counter = %v, want %v", got, m.Polled())
	}
	if got := snap["xvolt_fleet_runs_total"]; got != float64(m.Polled()*2) {
		t.Errorf("runs counter = %v, want %v", got, m.Polled()*2)
	}

	// Per-board gauges match the status table.
	var savings float64
	for _, s := range m.Boards() {
		mvKey := fmt.Sprintf("xvolt_fleet_board_voltage_mv{board=%q}", s.ID)
		if got := snap[mvKey]; got != float64(s.VoltageMV) {
			t.Errorf("%s = %v, status says %d", mvKey, got, s.VoltageMV)
		}
		marginKey := fmt.Sprintf("xvolt_fleet_board_guardband_mv{board=%q}", s.ID)
		if got := snap[marginKey]; got != float64(s.MarginMV) {
			t.Errorf("%s = %v, status says %d", marginKey, got, s.MarginMV)
		}
		savings += s.Savings
	}
	// The gauge is maintained incrementally at commit time (subtract old
	// status, add new), so it can differ from a fresh sum by rounding —
	// but only by ulps, and identically at every shard/worker count.
	if got, want := snap["xvolt_fleet_power_savings_mean"], savings/float64(len(m.Boards())); math.Abs(got-want) > 1e-12 {
		t.Errorf("savings gauge = %v, want %v", got, want)
	}
}

func TestFleetBoardLookup(t *testing.T) {
	m := newTestManager(t, testConfig(5))
	m.Run(20)
	s, ok := m.Board("board-00")
	if !ok || s.ID != "board-00" {
		t.Fatalf("Board(board-00) = %+v, %v", s, ok)
	}
	if s.FloorMV <= 0 || s.VoltageMV < s.FloorMV {
		t.Errorf("implausible board status: floor=%d voltage=%d", s.FloorMV, s.VoltageMV)
	}
	if _, ok := m.Board("board-99"); ok {
		t.Error("unknown board must not resolve")
	}
}

func TestFleetDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Boards != 16 || cfg.Workers != 4 || cfg.RunsPerPoll != 2 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.DedupWindow != 3*cfg.BaseInterval {
		t.Errorf("dedup window default = %v", cfg.DedupWindow)
	}
	if cfg.JitterFrac != 0.25 {
		t.Errorf("jitter default = %v, want 0.25", cfg.JitterFrac)
	}
	if len(cfg.Corners) != 3 {
		t.Errorf("default corners = %v", cfg.Corners)
	}
	if cfg.Weights.SDC == 0 {
		t.Error("weights default missing")
	}
	// Negative values disable dedup and jitter respectively.
	cfg2 := Config{DedupWindow: -1, JitterFrac: -1}.withDefaults()
	if cfg2.DedupWindow != 0 || cfg2.JitterFrac != 0 {
		t.Errorf("negative dedup/jitter = %v/%v, want 0/0", cfg2.DedupWindow, cfg2.JitterFrac)
	}
}
