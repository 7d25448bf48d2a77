package errclose

import (
	"xvolt/internal/eventstore"
	"xvolt/internal/fleet"
)

// badJournalClose drops the close errors that carry an event journal's
// sticky write error, so a run whose journal stopped at a failed write
// would still exit 0.
func badJournalClose(m *fleet.Manager, s *fleet.Store, l *eventstore.Log) {
	defer func() { _ = m.Close() }()
	_ = s.Close()
	_ = l.Close()
}
