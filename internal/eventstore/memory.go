// Memory backend: the bounded in-process dedup ring, refactored out of
// the fleet package. It retains nothing across restarts; the fleet runs
// on it by default and the determinism tests pin the Log backend's
// replayed state against it.

package eventstore

import (
	"sync"
	"time"
)

// Memory is the in-memory Store backend. Construct with NewMemory.
type Memory struct {
	mu sync.Mutex
	r  ring
}

var _ Store = (*Memory)(nil)

// NewMemory returns an in-memory store retaining up to capacity records
// (default 4096 if ≤ 0), collapsing identical consecutive per-board
// records within the dedup window, and dropping records older than
// maxAge relative to the newest (0 disables age retention).
func NewMemory(capacity int, window, maxAge time.Duration) *Memory {
	return &Memory{r: newRing(capacity, window, maxAge)}
}

// Append records one stamped event.
func (m *Memory) Append(rec Record) (AppendResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.r.append(rec), nil
}

// Records returns a copy of the retained records in order.
func (m *Memory) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.r.records()
}

// RecordsSince returns a copy of the retained records with At or
// LastAt ≥ at, in order.
func (m *Memory) RecordsSince(at time.Duration) []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.r.recordsSince(at)
}

// RecordsFor returns up to n most recent records of one board, oldest
// first (n ≤ 0 means all).
func (m *Memory) RecordsFor(board string, n int) []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.r.recordsFor(board, n)
}

// Len returns the retained record count.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.r.retained())
}

// Stats returns the lifetime counters.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.r.stats
}

// Close is a no-op for the in-memory backend.
func (m *Memory) Close() error { return nil }
