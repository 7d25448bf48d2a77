package eventstore

import "fmt"

// Compact forces a rotation + snapshot compaction now, leaving the log
// as a single segment holding one snapshot (plus subsequent appends).
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.werr != nil {
		return l.werr
	}
	if err := l.active.Close(); err != nil {
		l.werr = fmt.Errorf("eventstore: sealing segment: %w", err)
		return l.werr
	}
	l.sealed = append(l.sealed, l.activeIdx)
	if err := l.openSegment(l.activeIdx + 1); err != nil {
		l.werr = err
		return err
	}
	if err := l.compactLocked(); err != nil {
		l.werr = err
		return err
	}
	return nil
}

// Segments reports the on-disk segment count (sealed + active) — test
// and introspection surface.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}
