// Canonical text renderers: the one implementation of the fleet's dump
// formats. internal/fleet renders its events (converted by Event.APIv1)
// and its transitions (which are these types) here, so a hub rendering a
// source's replicated events produces the same bytes as `xvolt-fleet
// -dump` on the source itself — which the CI hub smoke step diffs end to
// end.

package apiv1

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// KindHealthChanged is the event kind whose text rendering carries the
// state field.
const KindHealthChanged = "health-changed"

// FormatAt renders a virtual timestamp with fixed millisecond precision
// so dumps align and compare byte-for-byte.
func FormatAt(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64) + "s"
}

// String renders one line of the event text dump, byte-identical to the
// source fleet's own rendering of the same event.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%06d %12s %-9s %-18s", e.Seq, FormatAt(e.At), e.Board, e.Kind)
	if e.Kind == KindHealthChanged {
		fmt.Fprintf(&b, " state=%s", e.State)
	}
	if e.MV != 0 {
		fmt.Fprintf(&b, " mv=%d", e.MV)
	}
	if e.Count > 1 {
		fmt.Fprintf(&b, " x%d(last %s)", e.Count, FormatAt(e.LastAt))
	}
	if e.Msg != "" {
		b.WriteString(" ")
		b.WriteString(e.Msg)
	}
	return b.String()
}

// String renders one line of the transitions dump, byte-identical to
// the source fleet's rendering.
func (t Transition) String() string {
	return fmt.Sprintf("%06d %12s %-9s %s -> %s (%s)",
		t.Seq, FormatAt(t.At), t.Board, t.From, t.To, t.Reason)
}
