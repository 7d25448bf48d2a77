// Sharding: the manager splits the fleet into N shards, each owning a
// disjoint contiguous board range with its own schedule heap and virtual
// clock, polled concurrently on per-shard worker pools and merged back
// into one global order at every commit boundary.
//
// The determinism argument, layer by layer:
//
//   - Board construction depends only on (Config, global board index) —
//     every per-board stream is seeded through core.CampaignSeed keyed on
//     the global board id — so shard ownership cannot alter a board.
//   - The schedule is drawn in global (due, board index) order: each
//     shard keeps a binary min-heap keyed the same way, and takeSlots
//     merges shard heads with a strict-less tie-break on the board
//     index. O(log n) per draw; sharded_test.go pins the draw sequence
//     against a linear-scan oracle.
//   - Polls execute concurrently (outcome slots are disjoint), then
//     commit under one lock in global slot order — so the event store,
//     transition log and status table receive the same writes at any
//     shard and worker count.
//
// sharded_test.go pins all three against goldens in testdata/ at
// multiple shard and worker counts.

package fleet

import (
	"sync"
	"time"

	"xvolt/internal/obs"
	"xvolt/internal/workload"
)

// shard owns a contiguous global board range [lo, hi) plus its half of
// the schedule: a min-heap of next-due slots for its boards. The heap is
// mutated only by takeSlots under runMu; clock/polls are committed under
// the fleet lock at merge time.
type shard struct {
	id     int
	lo, hi int // global board index range [lo, hi)

	heap []pollSlot // min-heap on (due, board index)

	clock time.Duration // committed virtual clock of this shard
	polls uint64        // committed polls of this shard
}

// New builds the fleet partitioned into cfg.Shards shards. Board
// construction fans out per shard; the boards built do not depend on
// the shard count because construction depends only on the global
// index.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	suite := workload.PrimarySuite()
	m := &Manager{}
	if err := m.initState(cfg); err != nil {
		return nil, err
	}
	m.boards = make([]*board, cfg.Boards)
	m.shardOf = make([]int, cfg.Boards)

	// Contiguous ranges, remainder spread over the leading shards.
	m.shards = make([]*shard, cfg.Shards)
	per, rem := cfg.Boards/cfg.Shards, cfg.Boards%cfg.Shards
	lo := 0
	for s := range m.shards {
		n := per
		if s < rem {
			n++
		}
		m.shards[s] = &shard{id: s, lo: lo, hi: lo + n}
		for i := lo; i < lo+n; i++ {
			m.shardOf[i] = s
		}
		lo += n
	}

	errs := make([]error, len(m.shards))
	var wg sync.WaitGroup
	for s, sh := range m.shards {
		wg.Add(1)
		go func(s int, sh *shard) {
			defer wg.Done()
			for i := sh.lo; i < sh.hi; i++ {
				b, err := buildBoard(&m.cfg, suite, i)
				if err != nil {
					errs[s] = err
					return
				}
				m.boards[i] = b
			}
		}(s, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for _, sh := range m.shards {
		sh.heap = make([]pollSlot, 0, sh.hi-sh.lo)
		for i := sh.lo; i < sh.hi; i++ {
			sh.heap = append(sh.heap, pollSlot{board: i, due: m.boards[i].nextDue})
		}
		sh.heapify()
	}
	m.commitInitial()
	return m, nil
}

// slotBefore is the global schedule order: earlier due first, lower
// board index on ties.
func slotBefore(a, b pollSlot) bool {
	return a.due < b.due || (a.due == b.due && a.board < b.board)
}

// heapify establishes the heap invariant over the initial slots.
func (sh *shard) heapify() {
	for i := len(sh.heap)/2 - 1; i >= 0; i-- {
		sh.siftDown(i)
	}
}

// siftDown restores the heap invariant from position i.
func (sh *shard) siftDown(i int) {
	h := sh.heap
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && slotBefore(h[l], h[min]) {
			min = l
		}
		if r < len(h) && slotBefore(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// advanceHead replaces the head slot's due time with the board's next
// interval draw and sifts it down — the schedule never shrinks, so a
// pop is always followed by a push of the same board.
func (sh *shard) advanceHead(next time.Duration) {
	sh.heap[0].due = next
	sh.siftDown(0)
}

// takeSlots draws the next n polls in global schedule order by merging
// the shard heap heads. Runs under runMu.
func (m *Manager) takeSlots(n int) []pollSlot {
	out := make([]pollSlot, 0, n)
	for len(out) < n {
		var best *shard
		for _, sh := range m.shards {
			if len(sh.heap) == 0 {
				continue
			}
			if best == nil || slotBefore(sh.heap[0], best.heap[0]) {
				best = sh
			}
		}
		s := best.heap[0]
		out = append(out, s)
		b := m.boards[s.board]
		b.nextDue += b.nextInterval(&m.cfg)
		best.advanceHead(b.nextDue)
	}
	return out
}

// Run executes the next `polls` scheduled polls — every shard polls its
// own boards concurrently on a Workers-wide pool — then merges the
// outcomes by committing them in global slot order under one lock.
// Chunking and shard/worker counts are immaterial to the committed
// artifacts: Run(100) twice commits exactly what Run(200) would. Run
// calls are serialized; snapshot readers may run concurrently.
func (m *Manager) Run(polls int) {
	if polls <= 0 {
		return
	}
	m.runMu.Lock()
	defer m.runMu.Unlock()

	slots := m.takeSlots(polls)
	m.traceSchedule(slots)
	jobs := make([][]int, len(m.boards))
	for si, s := range slots {
		jobs[s.board] = append(jobs[s.board], si)
	}
	outcomes := make([]pollOutcome, len(slots))

	// The poll-latency instrument is read by workers without the lock;
	// capture it once here (SetMetrics may race Run otherwise).
	m.mu.Lock()
	pollSeconds := m.m.pollSeconds
	m.mu.Unlock()

	// Poll phase: shards run concurrently; outcome slots are disjoint,
	// so no locks are held.
	var wg sync.WaitGroup
	for _, sh := range m.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.execute(m, jobs, slots, outcomes, pollSeconds)
		}(sh)
	}
	wg.Wait()

	// Merge phase: commit in global slot order — the snapshot boundary
	// where the shard streams interleave back into one global order.
	gen := m.gen.Load() + 1
	m.mu.Lock()
	defer m.mu.Unlock()
	for si := range outcomes {
		m.commitLocked(&outcomes[si], gen)
		m.traceOutcomeLocked(&outcomes[si])
	}
	for si := range slots {
		sh := m.shards[m.shardOf[slots[si].board]]
		sh.polls++
		if slots[si].due > sh.clock {
			sh.clock = slots[si].due
		}
	}
	m.publishGaugesLocked()
	m.gen.Store(gen)
}

// execute runs this shard's share of the batch on its own worker pool.
// Boards are handed out whole (a board's polls are strictly sequential).
func (sh *shard) execute(m *Manager, jobs [][]int, slots []pollSlot, outcomes []pollOutcome, pollSeconds *obs.HDR) {
	workCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < m.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := range workCh {
				b := m.boards[bi]
				for _, si := range jobs[bi] {
					span := obs.StartSpan(pollSeconds)
					outcomes[si] = b.poll(slots[si].due, &m.cfg)
					span.End()
				}
			}
		}()
	}
	for bi := sh.lo; bi < sh.hi; bi++ {
		if len(jobs[bi]) > 0 {
			workCh <- bi
		}
	}
	close(workCh)
	wg.Wait()
}

// ShardStats is one shard's committed view.
type ShardStats struct {
	Shard  int
	Boards int
	Polls  uint64
	Clock  time.Duration
}

// Shards reports the per-shard committed stats.
func (m *Manager) Shards() []ShardStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ShardStats, len(m.shards))
	for i, sh := range m.shards {
		out[i] = ShardStats{Shard: sh.id, Boards: sh.hi - sh.lo, Polls: sh.polls, Clock: sh.clock}
	}
	return out
}
