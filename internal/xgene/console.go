package xgene

import (
	"fmt"
	"sync"
)

// Console models the board's serial port: a bounded line buffer plus a
// heartbeat counter. A live kernel emits heartbeats; after a system crash
// the stream goes silent, which is how the external watchdog detects the
// hang (§2.2, Fig. 2).
type Console struct {
	mu        sync.Mutex
	lines     []string
	heartbeat uint64
	maxLines  int
}

// newConsole returns an empty console retaining up to max lines.
func newConsole(max int) *Console {
	if max <= 0 {
		max = 512
	}
	return &Console{maxLines: max}
}

// Printf appends a formatted line to the serial stream.
func (c *Console) Printf(format string, args ...interface{}) {
	c.writeLine(fmt.Sprintf(format, args...))
}

// writeLine appends a finished line, such as an interned one, to the serial
// stream.
func (c *Console) writeLine(line string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = append(c.lines, line)
	if len(c.lines) > c.maxLines {
		c.lines = c.lines[len(c.lines)-c.maxLines:]
	}
}

// Tail returns up to n most recent lines.
func (c *Console) Tail(n int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > len(c.lines) {
		n = len(c.lines)
	}
	out := make([]string, n)
	copy(out, c.lines[len(c.lines)-n:])
	return out
}

// beat advances the heartbeat counter (called by a live machine).
func (c *Console) beat() {
	c.mu.Lock()
	c.heartbeat++
	c.mu.Unlock()
}

// Heartbeat returns the current heartbeat counter. A watchdog that reads
// the same value twice across a probe interval concludes the system hung.
func (c *Console) Heartbeat() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heartbeat
}

// clear wipes the console on a power cycle.
func (c *Console) clear() {
	c.mu.Lock()
	c.lines = nil
	c.mu.Unlock()
}
