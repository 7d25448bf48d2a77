package fleet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xvolt/internal/obs"
)

// golden is a fleet run whose artifacts testdata/<dir> holds: the event
// store text, the transition log, the /api/fleet body and the delta
// body since the generation before the last four polls. They were
// captured from the single-set manager this package once shipped, and
// pin every worker count to its output.
type golden struct {
	dir     string
	cfg     Config
	polls   int
	dropped uint64 // events evicted by store retention
}

var (
	// evictGolden's small StoreCap forces retention eviction during the
	// run; TestDurableStoreReplaysByteIdentical replays it from disk.
	evictGolden = golden{"evict-seed7-polls600", Config{Boards: 6, Seed: 7, ConfirmRuns: 1, StoreCap: 32}, 600, 152}
	// crashGolden pins the margin at the floor (NarrowAfter 1, no
	// steps), so boards crash during polls: its events hold 4 watchdog
	// reboots and three boards report recoveries.
	crashGolden = golden{"crash-seed3-polls1200", Config{Boards: 24, Seed: 3, ConfirmRuns: 1, RunsPerPoll: 4,
		StoreCap: 256, Guardband: GuardbandPolicy{NarrowAfter: 1}}, 1200, 1465}
	goldens = []golden{{"seed11-polls120", testConfig(11), 120, 0}, evictGolden, crashGolden}
)

// readGolden returns one artifact of a golden.
func readGolden(t *testing.T, g golden, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", g.dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetMatchesGoldens pins the fleet to the goldens — event store
// bytes, transition log, retention loss, serialized snapshot and delta
// snapshot — at every worker count.
func TestFleetMatchesGoldens(t *testing.T) {
	for _, g := range goldens {
		wantEv, wantTr := readGolden(t, g, "events.txt"), readGolden(t, g, "transitions.txt")
		wantBody, wantDelta := readGolden(t, g, "boards.json"), readGolden(t, g, "delta.json")
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := g.cfg
			cfg.Workers = workers
			m := newTestManager(t, cfg)
			m.Run(g.polls - 4)
			mid := m.Generation()
			m.Run(4)

			ev, tr := dump(t, m)
			if ev != wantEv {
				t.Errorf("%s workers=%d: event store differs from golden", g.dir, workers)
			}
			if tr != wantTr {
				t.Errorf("%s workers=%d: transition log differs from golden", g.dir, workers)
			}
			if got := m.Store().Dropped(); got != g.dropped {
				t.Errorf("%s workers=%d: dropped %d events, golden %d", g.dir, workers, got, g.dropped)
			}
			if _, body, err := m.BoardsJSON(); err != nil {
				t.Fatal(err)
			} else if string(body) != wantBody {
				t.Errorf("%s workers=%d: snapshot body differs from golden", g.dir, workers)
			}
			// The delta body carries the generation and since.
			if _, delta, err := m.BoardsDeltaJSON(mid); err != nil {
				t.Fatal(err)
			} else if string(delta) != wantDelta {
				t.Errorf("%s workers=%d: delta snapshot differs from golden", g.dir, workers)
			}
		}
	}
}

// TestCrashGoldenReboots keeps the crash golden a crash golden: its
// events must hold watchdog reboots during polls and its boards nonzero
// recoveries, or the crash path goes unpinned.
func TestCrashGoldenReboots(t *testing.T) {
	if n := strings.Count(readGolden(t, crashGolden, "events.txt"), BoardRebooted.String()); n == 0 {
		t.Error("crash golden holds no reboot event")
	}
	if !strings.Contains(readGolden(t, crashGolden, "boards.json"), `"watchdog_recoveries": 3,`) {
		t.Error("crash golden has no board with recoveries")
	}
}

// linearSlots is the schedule oracle: an O(boards) scan for the board
// due first, lower index on ties, advancing its interval stream exactly
// as takeSlots does.
func linearSlots(m *Manager, n int) []pollSlot {
	out := make([]pollSlot, 0, n)
	for len(out) < n {
		next := 0
		for i, b := range m.boards {
			if b.nextDue < m.boards[next].nextDue {
				next = i
			}
		}
		b := m.boards[next]
		out = append(out, pollSlot{board: next, due: b.nextDue})
		b.nextDue += b.nextInterval(&m.cfg)
	}
	return out
}

// TestScheduleMatchesLinearScan pins the heap-drawn schedule to the
// linear-scan oracle draw by draw. Without jitter every board ties in
// every round, so the board-index tie-break decides every draw.
func TestScheduleMatchesLinearScan(t *testing.T) {
	const draws = 10000
	for _, jitter := range []float64{0.25, -1} {
		cfg := testConfig(13)
		cfg.Boards = 11
		cfg.JitterFrac = jitter
		want := linearSlots(newTestManager(t, cfg), draws)
		got := newTestManager(t, cfg).takeSlots(draws)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jitter=%v: draw %d = %+v, oracle %+v", jitter, i, got[i], want[i])
			}
		}
	}
}

// TestStoreReplayPerBoard replays the event store and checks that every
// board's committed state matches it — the store alone reconstructs
// per-board health, which is what a durable backend leans on.
func TestStoreReplayPerBoard(t *testing.T) {
	m := newTestManager(t, testConfig(11))
	m.Run(120)

	// Replay: all boards start healthy; each health-changed event moves
	// its board.
	state := map[string]State{}
	for _, s := range m.Boards() {
		state[s.ID] = Healthy
	}
	for _, e := range m.Store().Events() {
		if e.Kind == HealthChanged {
			state[e.Board] = e.State
		}
	}
	var polls uint64
	for _, s := range m.Boards() {
		if want := state[s.ID].String(); s.State != want {
			t.Errorf("%s committed %s, replayed store says %s", s.ID, s.State, want)
		}
		polls += uint64(s.Polls)
	}
	if polls != m.Polled() {
		t.Errorf("board polls sum to %d, want %d", polls, m.Polled())
	}
}

// TestPerBoardGaugeLimit checks that the board-labeled gauges vanish
// above perBoardGaugeLimit boards while the aggregates stay.
func TestPerBoardGaugeLimit(t *testing.T) {
	cfg := testConfig(9)
	cfg.Boards = perBoardGaugeLimit + 1
	m := newTestManager(t, cfg)
	r := obs.NewRegistry()
	m.SetMetrics(r)
	m.Run(8)

	snap := r.Snapshot()
	for key := range snap {
		if strings.HasPrefix(key, "xvolt_fleet_board_voltage_mv{") || strings.HasPrefix(key, "xvolt_fleet_board_guardband_mv{") {
			t.Fatalf("per-board series %s above the limit", key)
		}
	}
	if got := snap["xvolt_fleet_board_count"]; got != float64(cfg.Boards) {
		t.Errorf("board count gauge = %v, want %d", got, cfg.Boards)
	}
	if got := snap["xvolt_fleet_polls_total"]; got != 8 {
		t.Errorf("polls counter = %v, want 8", got)
	}
}
