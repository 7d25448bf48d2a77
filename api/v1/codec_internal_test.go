package apiv1

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDecoderScope: the one-pass scanner itself takes the documents
// servers write, compacted or not, and refuses every input that must go
// to json.Unmarshal. The fuzz targets prove the results agree either
// way; this proves the fast path is the one taken.
func TestDecoderScope(t *testing.T) {
	board := BoardStatus{
		ID: "board-03", Corner: "TFF", Workload: "mg.W", Core: 5, State: "degraded",
		FloorMV: 900, MarginMV: 10, VoltageMV: 910, Polls: 41, Runs: 82,
		SDCs: 2, CEs: 7, UEs: 1, ACs: 3, Boots: 2, Recoveries: 1,
		Savings: 0.112233, LastPoll: 41*time.Second + 137*time.Millisecond, Frequency: 2400,
	}
	tiny := board
	tiny.Savings = 2.5e-7
	want := BoardsDelta{Generation: 12, Since: 9, Boards: []BoardStatus{board, tiny}}
	canonical, err := Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{string(canonical), string(compact)} {
		d := decoder{data: []byte(doc)}
		got, ok := d.deltaDoc()
		if !ok {
			t.Fatalf("scanner refused a canonical delta:\n%s", doc)
		}
		if len(got.Boards) != 2 || got.Boards[0] != board || got.Boards[1] != tiny || got.Generation != 12 || got.Since != 9 {
			t.Errorf("scanner decoded %+v", got)
		}
	}
	for _, doc := range []string{"{\n \"boards\": []\n}\n", `{"boards":[{}]}`, `{}`} {
		d := decoder{data: []byte(doc)}
		if _, ok := d.boardsDoc(); !ok {
			t.Errorf("scanner refused Boards document %q", doc)
		}
	}

	for _, c := range []struct{ name, old, new string }{
		{"escape", `"board-03"`, `"board\u002d03"`},
		{"non-ASCII", `"mg.W"`, "\"mg.Wé\""},
		{"control byte", `"mg.W"`, "\"mg\tW\""},
		{"unknown key", `"core": 5`, `"core": 5, "extra": 1`},
		{"mis-cased key", `"core": 5`, `"Core": 5`},
		{"mis-cased top-level key", `"since": 9`, `"Since": 9`},
		{"null", `"id": "board-03"`, `"id": null`},
		{"leading zero", `"core": 5`, `"core": 05`},
		{"zero then digit", `"core": 5`, `"core": 01`},
		{"fraction for an int", `"core": 5`, `"core": 5.0`},
		{"exponent for an int", `"core": 5`, `"core": 5e0`},
		{"negative uint", `"ce_events": 7`, `"ce_events": -7`},
		{"19 digits", `"ce_events": 7`, `"ce_events": 1000000000000000000`},
		{"trailing dot", `"power_savings": 0.112233`, `"power_savings": 1.`},
		{"float leading zero", `"power_savings": 0.112233`, `"power_savings": 00.1`},
		{"bare exponent", `"power_savings": 0.112233`, `"power_savings": 1e`},
		{"float out of range", `"power_savings": 0.112233`, `"power_savings": 1e400`},
		{"repeated top-level key", `"since": 9`, `"since": 9, "since": 9`},
		{"repeated boards", "\n ]\n}", "\n ],\n \"boards\": []\n}"},
		{"trailing comma", "\n  }\n ]", "\n  },\n ]"},
		{"trailing data", "\n ]\n}\n", "\n ]\n}\nx"},
		{"second value", "\n ]\n}\n", "\n ]\n}\n{}"},
	} {
		doc := string(canonical)
		if !strings.Contains(doc, c.old) {
			t.Fatalf("%s: %q is not in the document", c.name, c.old)
		}
		doc = strings.Replace(doc, c.old, c.new, 1)
		d := decoder{data: []byte(doc)}
		if _, ok := d.deltaDoc(); ok {
			t.Errorf("%s: scanner took %q", c.name, doc)
		}
	}
}

// TestDecoderBoundsPreallocation: the slice the scanner sizes from a
// document's '{' bytes stays within a few times the document's size,
// whatever the document holds.
func TestDecoderBoundsPreallocation(t *testing.T) {
	doc := []byte(`{"boards": [` + strings.Repeat("{", 1<<16))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := decoder{data: doc}
	if _, ok := d.boardsDoc(); ok {
		t.Fatal("scanner took a run of '{'")
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(doc)); got > limit {
		t.Errorf("scanning a %d-byte document allocated %d bytes, over %d", len(doc), got, limit)
	}
}
