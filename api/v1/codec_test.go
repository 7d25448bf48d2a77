package apiv1_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
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

// goldenBoardDocuments returns the board documents of documents.golden:
// the BoardStatus, the empty Boards and the BoardsDelta.
func goldenBoardDocuments(tb testing.TB) map[string][]byte {
	tb.Helper()
	raw, err := os.ReadFile("testdata/documents.golden")
	if err != nil {
		tb.Fatal(err)
	}
	docs := map[string][]byte{}
	for _, part := range strings.Split(string(raw), "# ")[1:] {
		name, body, _ := strings.Cut(part, "\n")
		switch name {
		case "BoardStatus", "Boards empty", "BoardsDelta":
			docs[name] = []byte(body)
		}
	}
	if len(docs) != 3 {
		tb.Fatalf("documents.golden holds %d of the 3 board documents", len(docs))
	}
	return docs
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
	docs := goldenBoardDocuments(tb)
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
