package obs

import (
	"testing"
	"time"
)

// stubClock swaps the span clock for a manually advanced fake and
// restores it when the test ends; the returned func advances it. Span
// assertions become exact instead of sleep-and-hope.
func stubClock(t *testing.T) func(time.Duration) {
	t.Helper()
	cur := time.Unix(1000, 0)
	orig := now
	now = func() time.Time { return cur }
	t.Cleanup(func() { now = orig })
	return func(d time.Duration) { cur = cur.Add(d) }
}

func TestSpanObserves(t *testing.T) {
	advance := stubClock(t)
	r := NewRegistry()
	h := r.HDR("span_seconds", "h", HDROpts{})
	s := StartSpan(h)
	advance(250 * time.Millisecond)
	if d := s.End(); d != 250*time.Millisecond {
		t.Errorf("span measured %v, want 250ms", d)
	}
	if h.Count() != 1 {
		t.Errorf("histogram count = %d", h.Count())
	}
	if h.Sum() != 0.25 {
		t.Errorf("histogram sum = %v, want 0.25", h.Sum())
	}
}

func TestSpanNilHistogram(t *testing.T) {
	advance := stubClock(t)
	s := StartSpan(nil)
	advance(time.Millisecond)
	if d := s.End(); d != time.Millisecond {
		t.Errorf("nil-histogram span duration = %v, want 1ms", d)
	}
}

func TestZeroSpanInert(t *testing.T) {
	var s Span
	if s.End() != 0 {
		t.Error("zero span not inert")
	}
}
