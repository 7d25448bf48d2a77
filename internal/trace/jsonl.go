// JSONL sink: one JSON object per line per event, streamed as it is
// emitted — the in-process equivalent of the paper's crash-surviving raw
// logs (§2.2.1 "Safe Data Collection"). The schema is the Event struct:
//
//	{"seq":42,"kind":"run","msg":"mcf/ref core 4 905mV run 3 -> NO"}
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONLSink streams events to an io.Writer as JSON Lines. It is safe for
// concurrent use; write errors are sticky (the first one is kept and all
// later writes are skipped) so a full disk surfaces once, at the end,
// instead of spamming a failing writer mid-campaign.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int
	err error
}

// NewJSONLSink wraps w. Callers own w's lifecycle (flush/close).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Write encodes one event as a JSON line. Implements Sink.
func (s *JSONLSink) Write(e Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := s.enc.Encode(e); err != nil {
		s.err = fmt.Errorf("trace: jsonl sink: %w", err)
		return s.err
	}
	s.n++
	return nil
}

// Count reports how many events were successfully written.
func (s *JSONLSink) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the sticky write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// OpenJSONL opens a -trace-out destination as a JSONL sink: "-" streams
// to std (the caller's standard stream), any other path creates or
// truncates that file. The returned closer reports the sink's first
// write error, or else the file's close error: a trace that stopped
// short fails the command that wrote it. The write error is read before
// the file closes, so an event a still-running producer emits during
// shutdown is dropped, not reported.
func OpenJSONL(path string, std io.Writer) (*JSONLSink, func() error, error) {
	if path == "-" {
		s := NewJSONLSink(std)
		return s, s.Err, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	s := NewJSONLSink(f)
	return s, func() error {
		werr := s.Err()
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}, nil
}
