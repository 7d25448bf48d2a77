// Span helpers: time a region and fold the elapsed seconds into an HDR
// histogram with one line at each end of the region.
package obs

import (
	"net/http"
	"time"
)

// now is the span clock. It is the package's single sanctioned wall-clock
// reference (allowlisted for xvolt-lint's detrand rule): span timing is
// telemetry about the harness, never an input to campaign results, and
// tests swap the hook for a fake clock so elapsed-time assertions are
// exact instead of sleep-based.
var now = time.Now

// Span times one region. Obtain with StartSpan; call End when the
// region finishes. The zero Span is inert.
type Span struct {
	hist  *HDR
	start time.Time
}

// StartSpan starts timing into h. A nil histogram yields a span that
// still measures (End returns the real duration) but records nothing.
func StartSpan(h *HDR) Span {
	return Span{hist: h, start: now()}
}

// End observes the elapsed seconds into the span's histogram and returns
// the duration. The zero Span returns 0 and records nothing.
func (s Span) End() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	d := now().Sub(s.start)
	s.hist.Observe(d.Seconds())
	return d
}

// Handler serves the registry's Prometheus exposition — mountable as
// `GET /metrics` anywhere. A nil registry serves an empty (valid)
// exposition.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}
