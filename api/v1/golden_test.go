package apiv1

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// documentsGolden holds every document below as servers encode it. It
// was written once and is only read: a change to it is a change to the
// frozen wire schema.
const documentsGolden = "testdata/documents.golden"

// goldenDocuments renders one fully populated value of every api/v1
// document through Marshal, each under a "# name" line, then the text
// lines of Event and Transition.
func goldenDocuments(t *testing.T) []byte {
	t.Helper()
	value := 0.5
	board := BoardStatus{
		ID: "board-03", Corner: "TFF", Workload: "mg.W", Core: 5, State: "degraded",
		FloorMV: 900, MarginMV: 10, VoltageMV: 910, Polls: 41, Runs: 82,
		SDCs: 2, CEs: 7, UEs: 1, ACs: 3, Boots: 2, Recoveries: 1,
		Savings: 0.112233, LastPoll: 41*time.Second + 137*time.Millisecond, Frequency: 2400,
	}
	sdc := Event{Seq: 12, At: 2 * time.Second, LastAt: 4 * time.Second, Board: "board-03",
		Kind: "sdc-observed", State: "degraded", MV: 900, Count: 3, Msg: "output mismatch at operating point"}
	healthy := Event{Seq: 13, At: 9 * time.Second, Board: "board-03",
		Kind: KindHealthChanged, State: "healthy", Count: 1, Msg: "3 clean polls"}
	quiet := Event{Seq: 14, At: 10 * time.Second, Board: "board-04", Kind: "ce-burst", Count: 1, Msg: "edac corrected errors"}
	transition := Transition{Seq: 9, At: 3*time.Second + 250*time.Millisecond, Board: "board-03",
		From: "healthy", To: "degraded", Reason: "ce=1 sdc=false ac=false severity=0.50"}
	health := HealthSummary{
		Boards: 4, Polls: 100, Events: 30, DroppedEvents: 2, DedupedEvents: 5, Transitions: 7,
		States: []StateCount{{"healthy", 2}, {"degraded", 1}, {"unhealthy", 1}, {"recovering", 0}},
		Status: "unhealthy", MeanSavings: 0.09, VirtualNow: 100 * time.Second,
	}
	push := IngestRequest{
		Source: "rack-a", Generation: 7, VirtualNow: 12 * time.Second,
		Boards: []BoardStatus{board}, Events: []Event{sdc, healthy},
		Transitions: []Transition{transition}, Health: &health,
	}
	delta := push
	delta.BoardsSince = 6

	docs := []struct {
		name string
		v    any
	}{
		{"Event", sdc},
		{"Event health-changed healthy", healthy},
		{"BoardStatus", board},
		{"Boards empty", Boards{Boards: []BoardStatus{}}},
		{"BoardsDelta", BoardsDelta{Generation: 12, Since: 9, Boards: []BoardStatus{board}}},
		{"HealthSummary", health},
		{"BoardEvents", BoardEvents{Board: "board-03", Events: []Event{sdc, healthy}}},
		{"Transition", transition},
		{"Status", Status{Chip: "TTT", Responsive: true, BootCount: 3, Recoveries: 2,
			PMDVoltageMV: 930, SoCVoltageMV: 950, Frequencies: [4]int{2400, 300, 300, 300},
			PowerWatts: 21.75, TemperatureC: 48.5, CampaignsDone: 4}},
		{"Campaign", Campaign{Chip: "TSS", Benchmark: "mcf", Input: "ref", Core: 4, FrequencyMHz: 2400,
			SafeVminMV: 905, CrashVmaxMV: 880, Steps: []Step{
				{VoltageMV: 910, Runs: 3, Severity: 0, Region: "safe"},
				{VoltageMV: 885, Runs: 3, SDC: 1, CE: 2, UE: 1, AC: 1, SC: 1, Severity: 4.5, Region: "unsafe"},
			}}},
		{"Alerts", Alerts{
			Alerts: []Alert{
				{Rule: "fleet-unhealthy-ratio", Severity: "critical", Kind: "threshold", State: "firing",
					Value: &value, Threshold: 0.25, Since: 4 * time.Second, LastEval: 6 * time.Second, Help: "too many unhealthy boards"},
				{Rule: "fleet-polls-absent", Kind: "absence", State: "inactive", LastEval: 6 * time.Second},
			},
			Firing: 1, Evals: 6,
			Transitions: []AlertTransition{
				{Seq: 1, At: 4 * time.Second, Rule: "fleet-unhealthy-ratio", To: "firing", Value: &value},
				{Seq: 2, At: 5 * time.Second, Rule: "fleet-polls-absent", To: "inactive"},
			},
		}},
		{"IngestRequest full", push},
		{"IngestRequest delta", delta},
		{"IngestResponse", IngestResponse{Source: "rack-a", NewEvents: 4, UpdatedEvents: 2,
			DuplicateEvents: 1, NewTransitions: 1, Gaps: 3, NextSeq: 15}},
		{"HubSources", HubSources{Sources: []HubSource{
			{Source: "rack-a", Generation: 7, VirtualNow: 12 * time.Second, Boards: 6, Events: 40,
				Transitions: 5, Pushes: 4, NextSeq: 41, Evicted: 2, Deduped: 9, Gaps: 1},
			{Source: "rack-b", Generation: 3, VirtualNow: 8 * time.Second, Boards: 5, Events: 12,
				Transitions: 1, Pushes: 2, NextSeq: 13},
		}}},
	}
	var out bytes.Buffer
	for _, d := range docs {
		body, err := Marshal(d.v)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		out.WriteString("# " + d.name + "\n")
		out.Write(body)
	}
	out.WriteString("# text\n")
	for _, line := range []string{sdc.String(), healthy.String(), quiet.String(), transition.String()} {
		out.WriteString(line + "\n")
	}
	return out.Bytes()
}

// TestDocumentsMatchGolden pins the bytes of every api/v1 document and
// of the event and transition text lines against documentsGolden.
func TestDocumentsMatchGolden(t *testing.T) {
	want, err := os.ReadFile(documentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenDocuments(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %q\nwant %q", documentsGolden, i+1, g, w)
		}
	}
}
