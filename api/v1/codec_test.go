package apiv1_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/fleet"
)

// liveDocuments builds a fleet of n boards and returns its /api/fleet
// table and the /api/fleet?since= delta of one 32-poll chunk after it.
func liveDocuments(tb testing.TB, n int) (table, delta []byte) {
	tb.Helper()
	m, err := fleet.New(fleet.Config{Boards: n, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Close()
	gen, table, err := m.BoardsJSON()
	if err != nil {
		tb.Fatal(err)
	}
	m.Run(32)
	_, delta, err = m.BoardsDeltaJSON(gen)
	if err != nil {
		tb.Fatal(err)
	}
	return table, delta
}

// goldenDocuments returns the named documents of documents.golden.
func goldenDocuments(tb testing.TB, names ...string) map[string][]byte {
	tb.Helper()
	raw, err := os.ReadFile("testdata/documents.golden")
	if err != nil {
		tb.Fatal(err)
	}
	docs := map[string][]byte{}
	for _, part := range strings.Split(string(raw), "# ")[1:] {
		name, body, _ := strings.Cut(part, "\n")
		if slices.Contains(names, name) {
			docs[name] = []byte(body)
		}
	}
	if len(docs) != len(names) {
		tb.Fatalf("documents.golden holds %d of the documents %q", len(docs), names)
	}
	return docs
}

// goldenPushes returns documents.golden's two IngestRequest documents:
// the full push and the delta.
func goldenPushes(tb testing.TB) (full, delta []byte) {
	docs := goldenDocuments(tb, "IngestRequest full", "IngestRequest delta")
	return docs["IngestRequest full"], docs["IngestRequest delta"]
}

// goldenBoard is the board of documents.golden.
func goldenBoard() apiv1.BoardStatus {
	return apiv1.BoardStatus{
		ID: "board-03", Corner: "TFF", Workload: "mg.W", Core: 5, State: "degraded",
		FloorMV: 900, MarginMV: 10, VoltageMV: 910, Polls: 41, Runs: 82,
		SDCs: 2, CEs: 7, UEs: 1, ACs: 3, Boots: 2, Recoveries: 1,
		Savings: 0.112233, LastPoll: 41*time.Second + 137*time.Millisecond, Frequency: 2400,
	}
}

// decodeSeeds are the documents every decode fuzz target starts from:
// the golden board documents, a live fleet table and delta, and one
// document for each input the scanner must leave to json.Unmarshal.
func decodeSeeds(tb testing.TB) [][]byte {
	docs := goldenDocuments(tb, "BoardStatus", "Boards empty", "BoardsDelta")
	delta := string(docs["BoardsDelta"])
	table, live := liveDocuments(tb, 8)
	seeds := [][]byte{docs["BoardStatus"], docs["Boards empty"], docs["BoardsDelta"], table, live}
	// The canonical form compacted, and re-indented another way.
	var compact, tabbed bytes.Buffer
	if err := json.Compact(&compact, live); err != nil {
		tb.Fatal(err)
	}
	if err := json.Indent(&tabbed, live, "\t", "\t"); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, compact.Bytes(), tabbed.Bytes())
	edit := func(old, new string) {
		if !strings.Contains(delta, old) {
			tb.Fatalf("seed edit: %q is not in the golden delta", old)
		}
		seeds = append(seeds, []byte(strings.Replace(delta, old, new, 1)))
	}
	for _, e := range [][2]string{
		// escapes, non-ASCII, HTML bytes, U+2028 and invalid UTF-8
		{`"board-03"`, `"board\u002d03"`},
		{`"mg.W"`, `"mg.W\u00e9"`},
		{`"mg.W"`, "\"mg.W\u00e9\""},
		{`"mg.W"`, `"<mg>&W"`},
		{`"mg.W"`, "\"mg\u2028W\""},
		{`"mg.W"`, "\"mg\xffW\""},
		{`"mg.W"`, "\"mg\tW\""},
		// unknown and mis-cased keys
		{`"core": 5`, `"core": 5, "extra": [1, {"a": null}]`},
		{`"core": 5`, `"Core": 5`},
		{`"boards": [`, `"Boards": [`},
		{`"generation": 12`, `"GENERATION": 12`},
		// null
		{`"id": "board-03"`, `"id": null`},
		{`"core": 5`, `"core": null`},
		{"\"boards\": [\n  {", "\"boards\": [\n  null, {"},
		// numbers JSON or the field's type rejects
		{`"core": 5`, `"core": 05`},
		{`"core": 5`, `"core": 01`},
		{`"power_savings": 0.112233`, `"power_savings": 1.`},
		{`"power_savings": 0.112233`, `"power_savings": 01.5`},
		{`"power_savings": 0.112233`, `"power_savings": .5`},
		{`"power_savings": 0.112233`, `"power_savings": 1e`},
		{`"power_savings": 0.112233`, `"power_savings": 1e400`},
		{`"power_savings": 0.112233`, `"power_savings": "0.1"`},
		{`"core": 5`, `"core": 5.0`},
		{`"core": 5`, `"core": 5e0`},
		{`"core": 5`, `"core": -0`},
		{`"core": 5`, `"core": -`},
		{`"core": 5`, `"core": 9223372036854775808`},
		{`"core": 5`, `"core": -9223372036854775808`},
		{`"core": 5`, `"core": 123456789012345678`},
		{`"ce_events": 7`, `"ce_events": -7`},
		{`"ce_events": 7`, `"ce_events": 18446744073709551615`},
		{`"ce_events": 7`, `"ce_events": 18446744073709551616`},
		{`"generation": 12`, `"generation": -0`},
		{`"generation": 12`, `"generation": true`},
		{`"last_poll": 41137000000`, `"last_poll": -41137000000`},
		// floats near encoding/json's 'e'-form cutoffs
		{`"power_savings": 0.112233`, `"power_savings": 1e-6`},
		{`"power_savings": 0.112233`, `"power_savings": 9.99999e-7`},
		{`"power_savings": 0.112233`, `"power_savings": 1E+21`},
		{`"power_savings": 0.112233`, `"power_savings": 999999999999999900000`},
		{`"power_savings": 0.112233`, `"power_savings": -0`},
		{`"power_savings": 0.112233`, `"power_savings": 4.9e-324`},
		// a repeated top-level key, whose second "boards" array
		// json.Unmarshal decodes into the first one's elements
		{`"since": 9`, `"since": 9, "since": 10`},
		{"\n ]\n}", "\n ],\n \"boards\": [{\"id\": \"board-04\"}]\n}"},
		// a repeated board key, whose last value json.Unmarshal keeps
		{`"core": 5`, `"core": 5, "core": 6`},
		// structure
		{"\n  }\n ]", "\n  },\n ]"},
		{"\n  }\n ]", "\n  }\n ]]"},
		{`"core": 5,`, `"core": 5`},
		{`"core": 5,`, `"core" 5,`},
		{"{\n \"generation\"", "[\n \"generation\""},
	} {
		edit(e[0], e[1])
	}
	// trailing data
	for _, tail := range []string{"x", "{}", " \t\r\n", "\x00", "]"} {
		seeds = append(seeds, []byte(delta+tail))
	}
	seeds = append(seeds, []byte(`{}`), []byte(`{"boards": []}`), []byte(`{"boards": null}`),
		[]byte(`null`), []byte(``), []byte(`{"boards": [{}]}`), []byte(`{"boards": [{}, {"id": "a"}]}`),
		[]byte(`{"boards": [], "boards": [{"id": "a"}]}`), []byte("\ufeff{}"))
	return seeds
}

// sameDecode fails unless got and gotErr are what json.Unmarshal gives
// for data into a zero value of the same type.
func sameDecode[T any](t *testing.T, data []byte, got T, gotErr error) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("decode %q: error %v, json.Unmarshal's %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %#v\nwant %#v", data, got, want)
	}
}

func FuzzDecodeBoards(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
		// The same boards as a Boards document.
		if _, boards, ok := bytes.Cut(s, []byte(`"boards":`)); ok {
			f.Add(append([]byte(`{"boards":`), boards...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := apiv1.DecodeBoards(data)
		sameDecode(t, data, v, err)
	})
}

func FuzzDecodeBoardsDelta(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := apiv1.DecodeBoardsDelta(data)
		sameDecode(t, data, v, err)
	})
}

func FuzzAppendBoardStatus(f *testing.F) {
	add := func(b apiv1.BoardStatus) {
		f.Add(b.ID, b.Corner, b.Workload, b.Core, b.State, b.FloorMV, b.MarginMV, b.VoltageMV,
			b.Polls, b.Runs, b.SDCs, b.CEs, b.UEs, b.ACs, b.Boots, b.Recoveries, b.Savings,
			int64(b.LastPoll), b.Frequency)
	}
	g := goldenBoard()
	add(g)
	add(apiv1.BoardStatus{})
	for _, s := range []string{"<>&", "a\u2028b\u2029c", "\xff\xfe", "é", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f", ""} {
		b := g
		b.ID, b.Workload = s, s
		add(b)
	}
	for _, v := range []float64{1e-6, math.Nextafter(1e-6, 0), 9.99999e-7, 1e21, math.Nextafter(1e21, 0),
		-1e21, 1e-7, 123456789e-15, 5e-324, math.MaxFloat64, math.Copysign(0, -1), -0.5,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := g
		b.Savings = v
		add(b)
	}
	b := g
	b.Core, b.CEs, b.LastPoll, b.Frequency = math.MinInt64, math.MaxUint64, math.MaxInt64, -1
	add(b)
	f.Fuzz(func(t *testing.T, id, corner, workload string, core int, state string,
		floor, margin, voltage, polls, runs, sdcs int, ces, ues uint64, acs, boots, rec int,
		savings float64, lastPoll int64, freq int) {
		b := apiv1.BoardStatus{ID: id, Corner: corner, Workload: workload, Core: core, State: state,
			FloorMV: floor, MarginMV: margin, VoltageMV: voltage, Polls: polls, Runs: runs, SDCs: sdcs,
			CEs: ces, UEs: ues, ACs: acs, Boots: boots, Recoveries: rec, Savings: savings,
			LastPoll: time.Duration(lastPoll), Frequency: freq}
		prefix := []byte("prefix")
		got, err := apiv1.AppendBoardStatus(prefix, &b)
		want, wantErr := json.MarshalIndent(&b, "  ", " ")
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%#v: error %v, json.MarshalIndent's %v", b, err, wantErr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("%#v: failed append changed dst to %q", b, got)
			}
			return
		}
		if !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prefix" {
			t.Fatalf("%#v:\n got %s\nwant %s", b, got[len(prefix):], want)
		}
	})
}

// TestBoardDocumentsMatchMarshal pins the document encoders against
// Marshal: nil, empty and populated tables and deltas, from values and
// from segments.
func TestBoardDocumentsMatchMarshal(t *testing.T) {
	g := goldenBoard()
	odd := g
	odd.ID, odd.Savings = "rack <a>/board&03", 2.5e-7
	for _, boards := range [][]apiv1.BoardStatus{nil, {}, {g}, {g, odd, g}} {
		var segs [][]byte
		for i := range boards {
			seg, err := apiv1.AppendBoardStatus(nil, &boards[i])
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, seg)
		}
		check := func(name string, got []byte, err error, v any) {
			t.Helper()
			want, werr := apiv1.Marshal(v)
			if err != nil || werr != nil {
				t.Fatalf("%s: %v, %v", name, err, werr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s of %d boards:\n got %s\nwant %s", name, len(boards), got, want)
			}
		}
		got, err := apiv1.MarshalBoards(boards)
		check("MarshalBoards", got, err, apiv1.Boards{Boards: boards})
		got, err = apiv1.MarshalBoardsDelta(12, 9, boards)
		check("MarshalBoardsDelta", got, err, apiv1.BoardsDelta{Generation: 12, Since: 9, Boards: boards})
		if boards == nil {
			continue // segments cannot tell a nil table from an empty one
		}
		check("AppendBoards", apiv1.AppendBoards([]byte{}, segs), nil, apiv1.Boards{Boards: boards})
		check("AppendBoardsDelta", apiv1.AppendBoardsDelta(nil, 12, 9, segs), nil,
			apiv1.BoardsDelta{Generation: 12, Since: 9, Boards: boards})
	}
	nan := g
	nan.Savings = math.NaN()
	if _, err := apiv1.MarshalBoards([]apiv1.BoardStatus{g, nan}); err == nil {
		t.Error("MarshalBoards encoded a NaN")
	}
}

// BenchmarkDecodeBoardsDelta decodes a 2,000-board fleet's 32-poll
// delta and its full table, each beside json.Unmarshal of the same
// bytes (/reference).
func BenchmarkDecodeBoardsDelta(b *testing.B) {
	table, delta := liveDocuments(b, 2000)
	b.Run("delta", func(b *testing.B) {
		benchDecode(b, delta, apiv1.DecodeBoardsDelta)
	})
	b.Run("table", func(b *testing.B) {
		benchDecode(b, table, apiv1.DecodeBoards)
	})
}

func benchDecode[T any](b *testing.B, data []byte, decode func([]byte) (T, error)) {
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v T
			if err := json.Unmarshal(data, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDecoderScope: the one-pass scanner itself takes the documents
// servers and pushers write, compacted or not, and refuses every input
// that must go to json.Unmarshal. The fuzz targets prove the results
// agree either way; this proves the fast path is the one taken.
func TestDecoderScope(t *testing.T) {
	board := goldenBoard()
	tiny := board
	tiny.Savings = 2.5e-7
	want := apiv1.BoardsDelta{Generation: 12, Since: 9, Boards: []apiv1.BoardStatus{board, tiny}}
	canonical, err := apiv1.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{string(canonical), string(compact)} {
		got, ok := apiv1.ScanBoardsDelta([]byte(doc))
		if !ok {
			t.Fatalf("scanner refused a canonical delta:\n%s", doc)
		}
		if len(got.Boards) != 2 || got.Boards[0] != board || got.Boards[1] != tiny || got.Generation != 12 || got.Since != 9 {
			t.Errorf("scanner decoded %+v", got)
		}
	}
	for _, doc := range []string{"{\n \"boards\": []\n}\n", `{"boards":[{}]}`, `{}`} {
		if _, ok := apiv1.ScanBoards([]byte(doc)); !ok {
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
		if _, ok := apiv1.ScanBoardsDelta([]byte(doc)); ok {
			t.Errorf("%s: scanner took %q", c.name, doc)
		}
	}

	// Ingest requests: the golden pushes as Marshal and json.Marshal
	// write them, and a live fleet's full, steady and resync pushes.
	goldenFull, goldenDelta := goldenPushes(t)
	full, steady, resync := livePushes(t, 8, 64)
	base := string(compactJSON(t, goldenDelta))
	pushes := map[string][]byte{"golden full": goldenFull, "golden delta": goldenDelta,
		"compact golden delta": []byte(base), "live full": full,
		"live steady": steady, "live resync": resync}
	for name, doc := range pushes {
		got, ok := apiv1.ScanIngestRequest(doc)
		if !ok {
			t.Errorf("scanner refused the %s push:\n%s", name, doc)
			continue
		}
		var want apiv1.IngestRequest
		if err := json.Unmarshal(doc, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s push: scanner decoded\n%+v\nwant %+v", name, got, want)
		}
	}
	if req, _ := apiv1.ScanIngestRequest(steady); len(req.Boards) == 0 || req.Health == nil || req.BoardsSince == 0 {
		t.Errorf("the live steady push carries %d boards, health %v, boards_since %d",
			len(req.Boards), req.Health, req.BoardsSince)
	}
	if req, _ := apiv1.ScanIngestRequest(resync); len(req.Events) == 0 || len(req.Transitions) == 0 {
		t.Errorf("the live resync push carries %d events and %d transitions", len(req.Events), len(req.Transitions))
	}
	for _, c := range ingestFallbacks {
		if !strings.Contains(base, c[0]) {
			t.Fatalf("%q is not in the compact golden push", c[0])
		}
		doc := strings.Replace(base, c[0], c[1], 1)
		if _, ok := apiv1.ScanIngestRequest([]byte(doc)); ok {
			t.Errorf("scanner took %q", doc)
		}
	}
	for _, doc := range trailingIngestBodies[:3] {
		if _, ok := apiv1.ScanIngestRequest([]byte(doc)); ok {
			t.Errorf("scanner took %q", doc)
		}
	}
}

func compactJSON(tb testing.TB, doc []byte) []byte {
	tb.Helper()
	var out bytes.Buffer
	if err := json.Compact(&out, doc); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// livePushes returns the bodies a pusher sends from a fleet of n boards
// whose store holds storeCap events (0: the default), gathered as
// hub.Pusher gathers them: its first push, which carries everything; a
// steady push, two 32-poll chunks later (the second push resends the
// boards' first events, stamped at time zero like the first push); and,
// after four more chunks, the full push it resends when a restarted hub
// refuses its delta, by then missing the events retention evicted.
func livePushes(tb testing.TB, n, storeCap int) (full, steady, resync []byte) {
	tb.Helper()
	m, err := fleet.New(fleet.Config{Boards: n, Seed: 5, StoreCap: storeCap})
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Close()
	var lastGen, lastT uint64
	var lastAt time.Duration
	push := func() []byte {
		now := m.Now()
		gen, boards := m.BoardsSince(lastGen)
		health := m.HealthAPIv1()
		req := apiv1.IngestRequest{Source: "rack-a", Generation: gen, VirtualNow: now,
			Boards: boards, Events: m.EventsSince(lastAt), Transitions: m.TransitionsSince(lastT),
			Health: &health, BoardsSince: lastGen}
		body, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		lastGen, lastAt = gen, now
		if k := len(req.Transitions); k > 0 {
			lastT = req.Transitions[k-1].Seq
		}
		return body
	}
	full = push()
	m.Run(32)
	push()
	m.Run(32)
	steady = push()
	m.Run(4 * 32)
	lastGen, lastAt, lastT = 0, 0, 0
	resync = push()
	return full, steady, resync
}

// ingestFallbacks are edits of the compact golden delta push that the
// scanner must leave to json.Unmarshal.
var ingestFallbacks = [][2]string{
	// escapes, non-ASCII and unknown or mis-cased keys
	{`"rack-a"`, `"rack\u002da"`},
	{`"rack-a"`, "\"rack-\u00e9\""},
	{`"generation":7`, `"generation":7,"extra":[1,{"a":null}]`},
	{`"source":`, `"Source":`},
	{`"health":`, `"Health":`},
	{`"boards_since":6`, `"BOARDS_SINCE":6`},
	{`"status":"unhealthy"`, `"status":"unhealthy","extra":1`},
	{`"status":"unhealthy"`, `"Status":"unhealthy"`},
	{`{"state":"healthy"`, `{"State":"healthy"`},
	// null
	{`"source":"rack-a"`, `"source":null`},
	{`"generation":7`, `"generation":null`},
	{`"status":"unhealthy"`, `"status":null`},
	{`"states":[`, `"states":null,"x":[`},
	// numbers JSON or the field's type rejects
	{`"generation":7`, `"generation":07`},
	{`"generation":7`, `"generation":-7`},
	{`"generation":7`, `"generation":7.0`},
	{`"generation":7`, `"generation":18446744073709551616`},
	{`"virtual_now":12000000000`, `"virtual_now":1.2e10`},
	{`"boards_since":6`, `"boards_since":-6`},
	{`"polls":100`, `"polls":-100`},
	{`"mean_power_savings":0.09`, `"mean_power_savings":1e400`},
	{`"mean_power_savings":0.09`, `"mean_power_savings":"0.09"`},
	{`"healthy","boards":2`, `"healthy","boards":2.5`},
	// events and transitions: escapes, unknown or mis-cased keys, null,
	// numbers JSON or the field's type rejects
	{`"msg":"output mismatch at operating point"`, `"msg":"out\"put ]} \\ [{\u00e9"`},
	{`"reason":"`, `"reason":"\\\"],`},
	{`"from":"healthy"`, `"from":"\u0068ealthy"`},
	{`"count":3`, `"count":3,"extra":1`},
	{`"kind":"sdc-observed"`, `"Kind":"sdc-observed"`},
	{`"msg":"3 clean polls"`, `"msg":null`},
	{`"seq":12`, `"seq":-12`},
	{`"at":2000000000`, `"at":"2s"`},
	{`"last_at":4000000000`, `"last_at":4e9`},
	{`"mv":900`, `"mv":900.5`},
	{`"events":[`, `"events":{`},
	{`"events":[`, `"events":null,"x":[`},
	{`"reason":"`, `"reason":7,"x":"`},
	// repeated keys: top level, and the health summary's states, whose
	// second array json.Unmarshal decodes into the first one's elements
	{`"source":"rack-a"`, `"source":"rack-a","source":"rack-b"`},
	{`"boards_since":6`, `"boards_since":6,"events":[]`},
	{`"status":"unhealthy"`, `"status":"unhealthy","states":[{"boards":9}]`},
	// structure
	{`"boards_since":6}`, `"boards_since":6,}`},
	{`"generation":7`, `"generation" 7`},
	{`{"source"`, `["source"`},
	{`"boards_since":6}`, `"boards_since":6}x`},
}

// trailingIngestBodies are TestHubIngestRejectsTrailingData's bodies:
// three the hub refuses, then one it takes.
var trailingIngestBodies = []string{
	`{"source":"a","generation":1} garbage`,
	`{"source":"a","generation":2}{"source":"b","generation":1}`,
	`{"source":"a","generation":2}]`,
	"{\"source\":\"a\",\"generation\":1}\n\t ",
}

// ingestSeeds are the bodies both ingest fuzz targets start from: the
// golden pushes, a live fleet's full, steady and resync pushes, each
// fallback case, and the hub's trailing-data bodies.
func ingestSeeds(tb testing.TB) [][]byte {
	goldenFull, goldenDelta := goldenPushes(tb)
	full, steady, resync := livePushes(tb, 8, 64)
	base := string(compactJSON(tb, goldenDelta))
	seeds := [][]byte{goldenFull, goldenDelta, []byte(base), full, steady, resync}
	for _, c := range ingestFallbacks {
		seeds = append(seeds, []byte(strings.Replace(base, c[0], c[1], 1)))
	}
	seeds = append(seeds, []byte(strings.Replace(base, `"transitions":[`, `"transitions":[ `, 1)))
	for _, b := range trailingIngestBodies {
		seeds = append(seeds, []byte(b))
	}
	return append(seeds, []byte(`{}`), []byte(`null`), []byte(``), []byte(`{"source":"a","health":null}`),
		[]byte(`{"source":"a","boards":null,"events":null,"transitions":null}`),
		[]byte(`{"health":{"states":null}}`), []byte(`{"health":{"states":[]}}`),
		[]byte(`{"health":{}}`), []byte(`{"events":[],"transitions":[],"boards":[]}`))
}

func FuzzDecodeIngestRequest(f *testing.F) {
	for _, s := range ingestSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := apiv1.DecodeIngestRequest(data)
		sameDecode(t, data, v, err)
	})
}

// FuzzMarshalIngestRequest encodes every request json.Unmarshal takes
// from the fuzzed body, its last board's savings and its health's mean
// savings replaced by the fuzzed floats, and compares the bytes with
// json.Marshal's.
func FuzzMarshalIngestRequest(f *testing.F) {
	for _, s := range ingestSeeds(f) {
		f.Add(s, 0.112233, 0.09)
	}
	_, goldenDelta := goldenPushes(f)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e21, 9.99999e-7, math.Copysign(0, -1)} {
		f.Add(goldenDelta, v, 0.09)
		f.Add(goldenDelta, 0.112233, v)
	}
	f.Fuzz(func(t *testing.T, data []byte, savings, mean float64) {
		var req apiv1.IngestRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		if n := len(req.Boards); n > 0 {
			req.Boards[n-1].Savings = savings
		}
		if req.Health != nil {
			req.Health.MeanSavings = mean
		}
		got, err := apiv1.MarshalIngestRequest(&req)
		want, wantErr := json.Marshal(req)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%#v: error %v, json.Marshal's %v", req, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%#v:\n got %s\nwant %s", req, got, want)
		}
	})
}

// BenchmarkDecodeIngestRequest decodes the steady push of a 2,000-board
// fleet, the 32 boards of one chunk, beside json.Unmarshal of the same
// bytes (/reference).
func BenchmarkDecodeIngestRequest(b *testing.B) {
	_, steady, _ := livePushes(b, 2000, 0)
	benchDecode(b, steady, apiv1.DecodeIngestRequest)
}
