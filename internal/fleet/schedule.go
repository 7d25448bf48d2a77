// Scheduling and execution: one min-heap of next-due polls draws the
// schedule, and one pool of Config.Workers goroutines polls the boards
// in Run.
//
// The determinism argument, layer by layer:
//
//   - Board construction depends only on (Config, board index) — every
//     per-board stream is seeded through core.CampaignSeed keyed on the
//     board id.
//   - The schedule is drawn in (due, board index) order off the heap.
//     O(log n) per draw; schedule_test.go pins the draw sequence against
//     a linear-scan oracle.
//   - Polls execute concurrently (outcome slots are disjoint, a board's
//     polls run on one goroutine), then commit under one lock in slot
//     order — so the event store, transition log and status table
//     receive the same writes at any worker count.
//
// schedule_test.go pins all three against goldens in testdata/ at
// several worker counts.

package fleet

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xvolt/internal/obs"
	"xvolt/internal/workload"
)

// New builds the fleet, fabricating and characterizing the boards in
// index order on the calling goroutine. A parallel build would cut wall
// time but costs CPU time on shared cores (EXPERIMENTS.md "One schedule
// heap, one worker pool").
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	suite := workload.PrimarySuite()
	m := &Manager{}
	if err := m.initState(cfg); err != nil {
		return nil, err
	}
	m.boards = make([]*board, cfg.Boards)
	m.sched = make(schedule, cfg.Boards)
	for i := range m.boards {
		b, err := buildBoard(&m.cfg, suite, i)
		if err != nil {
			return nil, err
		}
		m.boards[i] = b
		m.sched[i] = pollSlot{board: i, due: b.nextDue}
	}
	m.sched.init()
	m.commitInitial()
	return m, nil
}

// schedule is a binary min-heap of every board's next-due poll, ordered
// by slotBefore. It never shrinks: a drawn board is pushed straight back
// with its next due time.
type schedule []pollSlot

// slotBefore is the schedule order: earlier due first, lower board index
// on ties.
func slotBefore(a, b pollSlot) bool {
	return a.due < b.due || (a.due == b.due && a.board < b.board)
}

// init establishes the heap invariant over the initial slots.
func (h schedule) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// siftDown restores the heap invariant from position i.
func (h schedule) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(h) && slotBefore(h[l], h[least]) {
			least = l
		}
		if r < len(h) && slotBefore(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// takeSlots draws the next n polls in schedule order, advancing each
// drawn board by its next interval draw. Runs under runMu.
func (m *Manager) takeSlots(n int) []pollSlot {
	out := make([]pollSlot, 0, n)
	for len(out) < n {
		s := m.sched[0]
		out = append(out, s)
		b := m.boards[s.board]
		b.nextDue += b.nextInterval(&m.cfg)
		m.sched[0].due = b.nextDue
		m.sched.siftDown(0)
	}
	return out
}

// Run executes the next `polls` scheduled polls on the worker pool, then
// commits the outcomes in slot order under one lock. Chunking and the
// worker count are immaterial to the committed artifacts: Run(100)
// twice commits exactly what Run(200) would. Run calls are serialized;
// snapshot readers may run concurrently.
func (m *Manager) Run(polls int) {
	if polls <= 0 {
		return
	}
	m.runMu.Lock()
	defer m.runMu.Unlock()

	slots := m.takeSlots(polls)
	m.traceSchedule(slots)
	jobs := boardJobs(slots)
	outcomes := make([]pollOutcome, len(slots))

	// The poll-latency instrument is read by workers without the lock;
	// capture it once here (SetMetrics may race Run otherwise).
	m.mu.Lock()
	pollSeconds := m.m.pollSeconds
	m.mu.Unlock()

	// Poll phase: the workers take the boards' jobs in order; outcome
	// slots are disjoint, so no locks are held.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(m.cfg.Workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(jobs); k = int(next.Add(1)) - 1 {
				b := m.boards[slots[jobs[k][0]].board]
				for _, si := range jobs[k] {
					span := obs.StartSpan(pollSeconds)
					outcomes[si] = b.poll(slots[si].due, &m.cfg)
					span.End()
				}
			}
		}()
	}
	wg.Wait()

	// Commit phase, in slot order.
	gen := m.gen.Load() + 1
	m.mu.Lock()
	defer m.mu.Unlock()
	for si := range outcomes {
		m.commitLocked(&outcomes[si], gen)
		m.traceOutcomeLocked(&outcomes[si])
	}
	m.publishGaugesLocked()
	m.gen.Store(gen)
}

// boardJobs groups a chunk's slots by board in O(chunk) space. Boards
// are handed out whole, since a board's polls are strictly sequential:
// one job per board, holding its slot indices in slot order, and the
// jobs in the order their boards first appear in the chunk.
func boardJobs(slots []pollSlot) [][]int {
	order := make([]int, len(slots))
	for i := range order {
		order[i] = i
	}
	// By board, then by slot: each board's slots become one run.
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(slots[a].board, slots[b].board); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	jobs := make([][]int, 0, len(slots))
	for start := 0; start < len(order); {
		end := start + 1
		for end < len(order) && slots[order[end]].board == slots[order[start]].board {
			end++
		}
		jobs = append(jobs, order[start:end:end])
		start = end
	}
	// A job's first slot is where its board first appears.
	slices.SortFunc(jobs, func(a, b []int) int { return cmp.Compare(a[0], b[0]) })
	return jobs
}

// pollSlot is one scheduled poll.
type pollSlot struct {
	board int
	due   time.Duration
}
