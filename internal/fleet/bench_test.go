package fleet

import (
	"runtime"
	"testing"

	"xvolt/internal/obs"
	"xvolt/internal/trace"
)

// BenchmarkFleetPoll measures steady-state poll throughput of a default-
// sized (16-board, mixed-corner) fleet: schedule draw, worker-pool
// execution of RunsPerPoll benchmark runs, and in-order commit to the
// event store. One op is one committed poll.
func BenchmarkFleetPoll(b *testing.B) {
	cfg := Config{Seed: 1, StoreCap: 1 << 16}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.Run(64) // reach steady state before measuring
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(b.N)
}

// BenchmarkFleetSnapshotDelta measures the delta snapshot encoder at
// steady state: each op commits one poll (dirtying one board) and
// re-encodes the /api/fleet document, so an op's encode cost is one
// segment marshal plus the stitch — O(dirty), not O(fleet).
func BenchmarkFleetSnapshotDelta(b *testing.B) {
	cfg := Config{Seed: 1, StoreCap: 1 << 16, Boards: 64}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.Run(64)
	if _, _, err := m.BoardsJSON(); err != nil {
		b.Fatal(err) // prime the segment arena with the full encode
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(1)
		if _, _, err := m.BoardsJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetRunChunk measures the daemon's commit loop at its
// steady state: a 2,000-board fleet at the daemon defaults, wired as
// xvolt-fleet wires it (metrics registry, a tracer keeping every
// trace), warmed until the tracer's span ring is full. One op is one
// Run(32), the daemon's default chunk.
func BenchmarkFleetRunChunk(b *testing.B) {
	m, err := New(Config{Boards: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m.SetMetrics(obs.NewRegistry())
	tr := trace.NewTracer(0, 1)
	m.SetTracer(tr)
	for tr.Evicted() == 0 {
		m.Run(32)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(32)
	}
}

// BenchmarkFleetNew measures bring-up: fleet.New at 2,000 boards with
// perfbench's fleet settings (two runs per poll, three confirmation
// runs). One op is one fleet built: each board's die, Vmin bisection,
// streams and initial commit. kB/board is the live heap the built fleet
// holds after a forced GC, per board.
func BenchmarkFleetNew(b *testing.B) {
	cfg := Config{Boards: 2000, Seed: 1, RunsPerPoll: 2, ConfirmRuns: 3}
	var perBoard float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		perBoard = float64(liveHeap()-before) / 1024 / float64(cfg.Boards)
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(perBoard, "kB/board")
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
