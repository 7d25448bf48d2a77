package fleet

import (
	"testing"
	"time"

	apiv1 "xvolt/api/v1"
)

// TestAPIv1ByteParity pins Event.APIv1, the fleet's one converter to the
// wire schema: kinds and states travel by name, a healthy state is
// omitted except on a health-changed event, and the text line is the
// api/v1 rendering. api/v1's golden test pins the bytes each wire event
// encodes to.
func TestAPIv1ByteParity(t *testing.T) {
	for _, c := range []struct {
		e    Event
		want apiv1.Event
	}{
		{
			Event{Seq: 1, At: time.Second, Board: "board-00", Kind: UndervoltApplied, MV: 905, Count: 1, Msg: "floor 900mV + margin 5mV"},
			apiv1.Event{Seq: 1, At: time.Second, Board: "board-00", Kind: "undervolt-applied", MV: 905, Count: 1, Msg: "floor 900mV + margin 5mV"},
		},
		{
			Event{Seq: 2, At: 2 * time.Second, LastAt: 4 * time.Second, Board: "board-01", Kind: SDCObserved, MV: 900, Count: 3, Msg: "output mismatch at operating point"},
			apiv1.Event{Seq: 2, At: 2 * time.Second, LastAt: 4 * time.Second, Board: "board-01", Kind: "sdc-observed", MV: 900, Count: 3, Msg: "output mismatch at operating point"},
		},
		{
			Event{Seq: 3, At: 5 * time.Second, Board: "board-01", Kind: HealthChanged, State: Degraded, Count: 1, Msg: "ce=1"},
			apiv1.Event{Seq: 3, At: 5 * time.Second, Board: "board-01", Kind: "health-changed", State: "degraded", Count: 1, Msg: "ce=1"},
		},
		// A health-changed event whose state is healthy carries it on the
		// wire, so the hub's text rendering shows it.
		{
			Event{Seq: 4, At: 9 * time.Second, Board: "board-02", Kind: HealthChanged, State: Healthy, Count: 1, Msg: "3 clean polls"},
			apiv1.Event{Seq: 4, At: 9 * time.Second, Board: "board-02", Kind: "health-changed", State: "healthy", Count: 1, Msg: "3 clean polls"},
		},
	} {
		if got := c.e.APIv1(); got != c.want {
			t.Errorf("%s event: wire form\n got %+v\nwant %+v", c.e.Kind, got, c.want)
		}
		if got, want := c.e.String(), c.want.String(); got != want {
			t.Errorf("%s event text:\n got %q\nwant %q", c.e.Kind, got, want)
		}
	}
}
