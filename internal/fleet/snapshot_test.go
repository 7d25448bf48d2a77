package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	apiv1 "xvolt/api/v1"
)

// referenceBoardsJSON is the /api/fleet document as the canonical api/v1
// encoder writes it over the whole board list. The delta encoder must
// reproduce it byte for byte.
func referenceBoardsJSON(t *testing.T, boards []BoardStatus) []byte {
	t.Helper()
	body, err := apiv1.Marshal(apiv1.Boards{Boards: boards})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// committedSince lists the statuses in after that differ from before,
// the Boards() snapshot taken at an earlier generation: every poll
// advances a board's Polls and LastPoll, so these are exactly the boards
// committed in between.
func committedSince(before, after []BoardStatus) []BoardStatus {
	var out []BoardStatus
	for i := range after {
		if after[i] != before[i] {
			out = append(out, after[i])
		}
	}
	return out
}

// TestBoardsJSONMatchesReference pins the stitched delta document
// against the reference encoder at several generations.
func TestBoardsJSONMatchesReference(t *testing.T) {
	m := newTestManager(t, testConfig(11))
	for _, polls := range []int{0, 1, 40, 0, 79} {
		m.Run(polls)
		gen, body, err := m.BoardsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if gen != m.Generation() {
			t.Fatalf("BoardsJSON gen = %d, Generation() = %d", gen, m.Generation())
		}
		want := referenceBoardsJSON(t, m.Boards())
		if !bytes.Equal(body, want) {
			t.Fatalf("after Run(%d): delta-encoded body diverges from reference encoder:\n--- delta ---\n%s--- reference ---\n%s",
				polls, body, want)
		}
	}
}

// TestBoardsJSONDeltaReencodesOnlyDirty pins the O(dirty boards) claim:
// after the first full encode, a generation that committed polls on k
// boards re-marshals exactly k segments, and an unchanged generation
// re-marshals none (cache hit returns the same buffer).
func TestBoardsJSONDeltaReencodesOnlyDirty(t *testing.T) {
	m := newTestManager(t, testConfig(11))
	if _, _, err := m.BoardsJSON(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.enc.encoded, m.cfg.Boards; got != want {
		t.Fatalf("first encode marshaled %d segments, want all %d", got, want)
	}

	// One poll dirties exactly one board.
	before := m.Boards()
	m.Run(1)
	if dirty := len(committedSince(before, m.Boards())); dirty != 1 {
		t.Fatalf("Run(1) dirtied %d boards, want 1", dirty)
	}
	if _, _, err := m.BoardsJSON(); err != nil {
		t.Fatal(err)
	}
	if m.enc.encoded != 1 {
		t.Fatalf("delta encode marshaled %d segments after Run(1), want 1", m.enc.encoded)
	}

	// Unchanged generation: cache hit, same buffer, no re-encode.
	_, b1, err := m.BoardsJSON()
	if err != nil {
		t.Fatal(err)
	}
	_, b2, err := m.BoardsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if &b1[0] != &b2[0] {
		t.Error("unchanged generation re-allocated the body")
	}
}

// referenceDeltaJSON is the delta document's executable spec: the
// canonical api/v1 encoding of (generation, since, boards).
func referenceDeltaJSON(t *testing.T, gen, since uint64, boards []BoardStatus) []byte {
	t.Helper()
	body, err := apiv1.Marshal(apiv1.BoardsDelta{Generation: gen, Since: since, Boards: boards})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBoardsDeltaJSONMatchesReference pins the wire delta: the document
// for ?since=S holds exactly the boards that committed after generation
// S, framed byte-identically to the reference encoder. A since past the
// generation counts another run's generations and gets every board.
func TestBoardsDeltaJSONMatchesReference(t *testing.T) {
	m := newTestManager(t, testConfig(11))
	m.Run(40)
	since, before := m.Generation(), m.Boards()
	m.Run(3) // a strict subset of the 6 boards commits after `since`

	gen, body, err := m.BoardsDeltaJSON(since)
	if err != nil {
		t.Fatal(err)
	}
	if gen != m.Generation() {
		t.Fatalf("delta gen = %d, Generation() = %d", gen, m.Generation())
	}
	want := committedSince(before, m.Boards())
	if len(want) == 0 || len(want) == m.cfg.Boards {
		t.Fatalf("degenerate delta: %d of %d boards dirty", len(want), m.cfg.Boards)
	}
	if ref := referenceDeltaJSON(t, gen, since, want); !bytes.Equal(body, ref) {
		t.Fatalf("delta body diverges from reference encoder:\n--- delta ---\n%s--- reference ---\n%s", body, ref)
	}

	// A current client gets no body — the HTTP layer's 304.
	gen2, none, err := m.BoardsDeltaJSON(gen)
	if err != nil {
		t.Fatal(err)
	}
	if none != nil || gen2 != gen {
		t.Fatalf("delta at current generation = (%d, %d bytes), want (gen, nil)", gen2, len(none))
	}

	_, all, err := m.BoardsDeltaJSON(gen + 5)
	if err != nil {
		t.Fatal(err)
	}
	if ref := referenceDeltaJSON(t, gen, gen+5, m.Boards()); !bytes.Equal(all, ref) {
		t.Fatalf("delta ahead of the generation diverges from every board:\n--- delta ---\n%s--- reference ---\n%s", all, ref)
	}
}

// TestBoardsDeltaJSONSharedPerSince: readers that ask for the same
// since at one generation share one stitched delta, so a second call
// returns the same bytes without allocating. Another since, or a
// commit, stitches anew, and every delta still equals its reference.
func TestBoardsDeltaJSONSharedPerSince(t *testing.T) {
	m := newTestManager(t, testConfig(11))
	m.Run(40)
	since, before := m.Generation(), m.Boards()
	m.Run(3)
	gen, first, err := m.BoardsDeltaJSON(since)
	if err != nil {
		t.Fatal(err)
	}
	var again []byte
	if allocs := testing.AllocsPerRun(20, func() { _, again, _ = m.BoardsDeltaJSON(since) }); allocs != 0 {
		t.Errorf("a second reader of the same delta allocated %v times, want 0", allocs)
	}
	if &again[0] != &first[0] {
		t.Error("a second reader of the same delta got a new stitch")
	}
	if ref := referenceDeltaJSON(t, gen, since, committedSince(before, m.Boards())); !bytes.Equal(first, ref) {
		t.Fatalf("shared delta diverges from reference encoder:\n--- delta ---\n%s--- reference ---\n%s", first, ref)
	}

	_, other, err := m.BoardsDeltaJSON(since - 1)
	if err != nil {
		t.Fatal(err)
	}
	if &other[0] == &first[0] || bytes.Equal(other, first) {
		t.Error("a reader with another since got the cached delta")
	}
	if _, back, _ := m.BoardsDeltaJSON(since); &back[0] == &first[0] || !bytes.Equal(back, first) {
		t.Error("returning to the first since did not restitch the same document")
	}

	before = m.Boards()
	m.Run(2)
	gen2, next, err := m.BoardsDeltaJSON(gen)
	if err != nil {
		t.Fatal(err)
	}
	if ref := referenceDeltaJSON(t, gen2, gen, committedSince(before, m.Boards())); !bytes.Equal(next, ref) {
		t.Fatalf("delta after a commit diverges from reference encoder:\n--- delta ---\n%s--- reference ---\n%s", next, ref)
	}
	if _, stale, _ := m.BoardsDeltaJSON(since); bytes.Equal(stale, first) {
		t.Error("the old generation's delta was served after a commit")
	}
}

// TestBoardsDeltaJSONMergesToFullSnapshot: applying a delta over the old
// full snapshot, board by board, reconstructs the new full snapshot —
// the client-side merge contract.
func TestBoardsDeltaJSONMergesToFullSnapshot(t *testing.T) {
	type doc struct {
		Boards []json.RawMessage `json:"boards"`
	}
	boardID := func(raw json.RawMessage) string {
		var s struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &s); err != nil || s.ID == "" {
			t.Fatalf("board segment without id: %v (%s)", err, raw)
		}
		return s.ID
	}
	m := newTestManager(t, testConfig(5))
	m.Run(30)
	since, old, err := m.BoardsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var base doc
	if err := json.Unmarshal(old, &base); err != nil {
		t.Fatal(err)
	}

	m.Run(45)
	gen, deltaBody, err := m.BoardsDeltaJSON(since)
	if err != nil {
		t.Fatal(err)
	}
	var delta doc
	if err := json.Unmarshal(deltaBody, &delta); err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]json.RawMessage, len(delta.Boards))
	for _, raw := range delta.Boards {
		byID[boardID(raw)] = raw
	}
	merged := make([]json.RawMessage, len(base.Boards))
	for i, raw := range base.Boards {
		if d, ok := byID[boardID(raw)]; ok {
			raw = d
		}
		merged[i] = raw
	}

	_, full, err := m.BoardsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var want doc
	if err := json.Unmarshal(full, &want); err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(want.Boards) {
		t.Fatalf("merged %d boards, want %d", len(merged), len(want.Boards))
	}
	compact := func(raw json.RawMessage) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for i := range merged {
		if compact(merged[i]) != compact(want.Boards[i]) {
			t.Errorf("board %d: merged != full after delta gen %d:\n%s\n%s", i, gen, merged[i], want.Boards[i])
		}
	}
}

// TestBoardsDeltaJSONStaleFallback: a reader further behind than the
// dirty log ring receives every board — a maximal but correct delta.
func TestBoardsDeltaJSONStaleFallback(t *testing.T) {
	cfg := testConfig(3)
	m := newTestManager(t, cfg)
	m.Run(5)
	since := m.Generation()
	for i := 0; i < dirtyLogGens+4; i++ {
		m.Run(1) // one generation per Run: walk past the ring
	}
	gen, body, err := m.BoardsDeltaJSON(since)
	if err != nil {
		t.Fatal(err)
	}
	if gen-since <= dirtyLogGens {
		t.Fatalf("test walked only %d generations, need > %d", gen-since, dirtyLogGens)
	}
	var delta struct {
		Boards []json.RawMessage `json:"boards"`
	}
	if err := json.Unmarshal(body, &delta); err != nil {
		t.Fatal(err)
	}
	if len(delta.Boards) != cfg.Boards {
		t.Fatalf("stale delta holds %d boards, want all %d", len(delta.Boards), cfg.Boards)
	}
}

// TestBoardsJSONBodyStableAcrossGenerations checks the arena discipline:
// a body handed to a reader must not be mutated by later re-encodes.
func TestBoardsJSONBodyStableAcrossGenerations(t *testing.T) {
	m := newTestManager(t, testConfig(7))
	m.Run(20)
	_, body, err := m.BoardsJSON()
	if err != nil {
		t.Fatal(err)
	}
	held := append([]byte(nil), body...)
	m.Run(40)
	if _, _, err := m.BoardsJSON(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, body) {
		t.Error("re-encoding a later generation mutated a previously returned body")
	}
}
