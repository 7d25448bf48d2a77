package fleet

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"xvolt/internal/obs"
)

// golden is a fleet run whose artifacts testdata/<dir> holds: the event
// store text, the transition log, the /api/fleet body and the delta
// body since the generation before the last four polls. They were
// captured from the single-set manager this package shipped before the
// sharded manager became the only one, and pin every shard and worker
// count to its output.
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
	goldens     = []golden{{"seed11-polls120", testConfig(11), 120, 0}, evictGolden}
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

// TestShardedMatchesManager pins the fleet to the goldens — event store
// bytes, transition log, retention loss, serialized snapshot and delta
// snapshot — at every shard and worker count.
func TestShardedMatchesManager(t *testing.T) {
	for _, g := range goldens {
		wantEv, wantTr := readGolden(t, g, "events.txt"), readGolden(t, g, "transitions.txt")
		wantBody, wantDelta := readGolden(t, g, "boards.json"), readGolden(t, g, "delta.json")
		for _, shards := range []int{1, 3, 8} {
			for _, workers := range []int{1, 4} {
				cfg := g.cfg
				cfg.Shards = shards
				cfg.Workers = workers
				m := newTestManager(t, cfg)
				m.Run(g.polls - 4)
				mid := m.Generation()
				m.Run(4)

				ev, tr := dump(t, m)
				if ev != wantEv {
					t.Errorf("%s shards=%d workers=%d: event store differs from golden", g.dir, shards, workers)
				}
				if tr != wantTr {
					t.Errorf("%s shards=%d workers=%d: transition log differs from golden", g.dir, shards, workers)
				}
				if got := m.Store().Dropped(); got != g.dropped {
					t.Errorf("%s shards=%d workers=%d: dropped %d events, golden %d", g.dir, shards, workers, got, g.dropped)
				}
				if _, body, err := m.BoardsJSON(); err != nil {
					t.Fatal(err)
				} else if string(body) != wantBody {
					t.Errorf("%s shards=%d workers=%d: snapshot body differs from golden", g.dir, shards, workers)
				}
				// The delta body carries the generation and since.
				if _, delta, err := m.BoardsDeltaJSON(mid); err != nil {
					t.Fatal(err)
				} else if string(delta) != wantDelta {
					t.Errorf("%s shards=%d workers=%d: delta snapshot differs from golden", g.dir, shards, workers)
				}
			}
		}
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

// TestScheduleMatchesLinearScan pins the heap-merged schedule to the
// linear-scan oracle draw by draw, at several shard counts. Without
// jitter every board ties in every round, so the board-index tie-break
// across shard heads decides every draw.
func TestScheduleMatchesLinearScan(t *testing.T) {
	const draws = 10000
	for _, jitter := range []float64{0.25, -1} {
		for _, shards := range []int{1, 2, 3, 8} {
			cfg := testConfig(13)
			cfg.Boards = 11
			cfg.JitterFrac = jitter
			cfg.Shards = shards
			want := linearSlots(newTestManager(t, cfg), draws)
			got := newTestManager(t, cfg).takeSlots(draws)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("jitter=%v shards=%d: draw %d = %+v, oracle %+v", jitter, shards, i, got[i], want[i])
				}
			}
		}
	}
}

func TestShardedChunkingInvariance(t *testing.T) {
	cfg := testConfig(7)
	cfg.Shards = 3
	mWhole := newTestManager(t, cfg)
	mWhole.Run(90)

	mChunked := newTestManager(t, cfg)
	mChunked.Run(17)
	mChunked.Run(40)
	mChunked.Run(33)

	ev1, tr1 := dump(t, mWhole)
	ev2, tr2 := dump(t, mChunked)
	if ev1 != ev2 {
		t.Error("sharded Run(90) and Run(17)+Run(40)+Run(33) diverge")
	}
	if tr1 != tr2 {
		t.Error("sharded transition log depends on Run chunking")
	}
	if mWhole.Polled() != 90 || mChunked.Polled() != 90 {
		t.Errorf("polled = %d / %d, want 90", mWhole.Polled(), mChunked.Polled())
	}
}

// TestShardedStoreReplayPerShard replays the shared event store and
// checks that each shard's aggregate health population matches its
// boards' committed states — the store alone reconstructs per-shard
// state, which is what a durable backend will lean on.
func TestShardedStoreReplayPerShard(t *testing.T) {
	cfg := testConfig(11)
	cfg.Shards = 3
	m := newTestManager(t, cfg)
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

	stats := m.Shards()
	if len(stats) != 3 {
		t.Fatalf("shards = %d, want 3", len(stats))
	}
	boards := m.Boards()
	lo := 0
	var totalPolls uint64
	for _, ss := range stats {
		for i := lo; i < lo+ss.Boards; i++ {
			if got, want := boards[i].State, state[boards[i].ID].String(); got != want {
				t.Errorf("shard %d: %s committed %s, replayed store says %s", ss.Shard, boards[i].ID, got, want)
			}
		}
		if ss.Clock > m.Now() {
			t.Errorf("shard %d clock %v ahead of fleet clock %v", ss.Shard, ss.Clock, m.Now())
		}
		totalPolls += ss.Polls
		lo += ss.Boards
	}
	if lo != len(boards) {
		t.Errorf("shard board counts sum to %d, want %d", lo, len(boards))
	}
	if totalPolls != m.Polled() {
		t.Errorf("shard polls sum to %d, want %d", totalPolls, m.Polled())
	}
}

// TestShardedMetrics checks the shard-labeled gauges agree with the
// committed shard stats and that per-board gauges vanish above the
// cardinality limit.
func TestShardedMetrics(t *testing.T) {
	cfg := testConfig(9)
	cfg.Shards = 3
	m := newTestManager(t, cfg)
	r := obs.NewRegistry()
	m.SetMetrics(r)
	m.Run(60)

	snap := r.Snapshot()
	for _, ss := range m.Shards() {
		id := strconv.Itoa(ss.Shard)
		if got := snap["xvolt_fleet_shard_polls{shard=\""+id+"\"}"]; got != float64(ss.Polls) {
			t.Errorf("shard %d polls gauge = %v, want %d", ss.Shard, got, ss.Polls)
		}
		if got := snap["xvolt_fleet_shard_boards{shard=\""+id+"\"}"]; got != float64(ss.Boards) {
			t.Errorf("shard %d boards gauge = %v, want %d", ss.Shard, got, ss.Boards)
		}
		if got := snap["xvolt_fleet_shard_clock_seconds{shard=\""+id+"\"}"]; got != ss.Clock.Seconds() {
			t.Errorf("shard %d clock gauge = %v, want %v", ss.Shard, got, ss.Clock.Seconds())
		}
	}
}

// TestShardPartition checks clamping and the remainder spread.
func TestShardPartition(t *testing.T) {
	cfg := testConfig(1)
	cfg.Boards = 7
	cfg.Shards = 3
	m := newTestManager(t, cfg)
	stats := m.Shards()
	sizes := []int{stats[0].Boards, stats[1].Boards, stats[2].Boards}
	if sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 2 {
		t.Errorf("partition of 7 boards over 3 shards = %v, want [3 2 2]", sizes)
	}

	// More shards than boards clamps to one board per shard.
	cfg2 := testConfig(1)
	cfg2.Boards = 2
	cfg2.Shards = 8
	m2 := newTestManager(t, cfg2)
	if got := len(m2.Shards()); got != 2 {
		t.Errorf("shards clamped to %d, want 2", got)
	}
}
