package apiv1

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestIngestRequestBoardsSinceOmittedWhenZero: the appended
// boards_since field is omitted at 0, so a full push encodes byte for
// byte as it did before the field existed, and appears last otherwise.
func TestIngestRequestBoardsSinceOmittedWhenZero(t *testing.T) {
	// before is IngestRequest as it was before BoardsSince was appended.
	type before struct {
		Source      string         `json:"source"`
		Generation  uint64         `json:"generation"`
		VirtualNow  time.Duration  `json:"virtual_now"`
		Boards      []BoardStatus  `json:"boards,omitempty"`
		Events      []Event        `json:"events,omitempty"`
		Transitions []Transition   `json:"transitions,omitempty"`
		Health      *HealthSummary `json:"health,omitempty"`
	}
	req := IngestRequest{
		Source: "rack-a", Generation: 7, VirtualNow: 3 * time.Second,
		Boards:      []BoardStatus{{ID: "board-00", State: "healthy"}},
		Events:      []Event{{Seq: 1, Board: "board-00", Kind: "sdc-observed", Count: 1}},
		Transitions: []Transition{{Seq: 1, Board: "board-00", From: "healthy", To: "degraded"}},
		Health:      &HealthSummary{Boards: 1, Status: "ok"},
	}
	old := before{req.Source, req.Generation, req.VirtualNow, req.Boards, req.Events, req.Transitions, req.Health}
	got, err := json.MarshalIndent(req, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(old, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("full push encoding changed:\n got %s\nwant %s", got, want)
	}

	req.BoardsSince = 6
	delta, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(delta), `,"boards_since":6}`) {
		t.Errorf("delta push encoding %s does not end with boards_since", delta)
	}
}
