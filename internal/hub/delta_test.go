package hub

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	apiv1 "xvolt/api/v1"
	clientv1 "xvolt/client/v1"
	"xvolt/internal/fleet"
	"xvolt/internal/obs"
)

// ingestRecorder fronts a swappable hub handler, records every ingest
// request and the status it was answered with, and can fail pushes
// with 503 without forwarding them.
type ingestRecorder struct {
	mu    sync.Mutex
	h     http.Handler
	fail  bool
	reqs  []apiv1.IngestRequest
	codes []int
}

func newIngestRecorder(h *Hub) *ingestRecorder { return &ingestRecorder{h: h.Handler(nil)} }

// swap puts a different hub behind the same listener (a hub restart).
func (rec *ingestRecorder) swap(h *Hub) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.h = h.Handler(nil)
}

func (rec *ingestRecorder) setFail(fail bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.fail = fail
}

// last returns the most recent ingest request and its status.
func (rec *ingestRecorder) last(t *testing.T) (apiv1.IngestRequest, int) {
	t.Helper()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.reqs) == 0 {
		t.Fatal("no ingest recorded")
	}
	return rec.reqs[len(rec.reqs)-1], rec.codes[len(rec.codes)-1]
}

// statusWriter captures the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (rec *ingestRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec.mu.Lock()
	h, fail := rec.h, rec.fail
	rec.mu.Unlock()
	if r.URL.Path != "/api/hub/ingest" {
		h.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req apiv1.IngestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	if fail {
		http.Error(sw, "injected push failure", http.StatusServiceUnavailable)
	} else {
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(sw, r)
	}
	rec.mu.Lock()
	rec.reqs = append(rec.reqs, req)
	rec.codes = append(rec.codes, sw.code)
	rec.mu.Unlock()
}

// boardIDs lists the ids of pushed boards, sorted.
func boardIDs(boards []apiv1.BoardStatus) []string {
	out := make([]string, len(boards))
	for i, b := range boards {
		out[i] = b.ID
	}
	sort.Strings(out)
	return out
}

// polledSince lists the boards whose status changed between two
// snapshots — every poll advances a board's Polls, so exactly the
// boards committed in between.
func polledSince(before, after []fleet.BoardStatus) []string {
	var out []string
	for i := range after {
		if after[i] != before[i] {
			out = append(out, after[i].ID)
		}
	}
	sort.Strings(out)
	return out
}

// wantTable is the hub's expected board table for one source: the
// fleet's statuses in wire form, namespaced and sorted by id.
func wantTable(source string, m *fleet.Manager) []apiv1.BoardStatus {
	var out []apiv1.BoardStatus
	for _, b := range m.Boards() {
		b.ID = source + "/" + b.ID
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestPusherPushesChangedBoards: the first push carries every board;
// each later push carries exactly the boards committed since the last
// acknowledged push; a failed push's boards ride along with the next
// one; and a baseline older than the fleet's dirty log falls back to
// the full table.
func TestPusherPushesChangedBoards(t *testing.T) {
	const boards = 300 // more boards than the dirty log has generations
	m, err := fleet.New(fleet.Config{Boards: boards, Seed: 3, ConfirmRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	rec := newIngestRecorder(h)
	ts := httptest.NewServer(rec)
	defer ts.Close()
	p := NewPusher(clientv1.New(ts.URL, clientv1.WithRetries(0)), "rack", m)
	ctx := context.Background()

	if _, err := p.Push(ctx); err != nil {
		t.Fatal(err)
	}
	req, _ := rec.last(t)
	if req.BoardsSince != 0 || len(req.Boards) != boards || req.Generation != m.Generation() {
		t.Fatalf("first push: boards_since %d, %d boards, generation %d; want 0, %d, %d",
			req.BoardsSince, len(req.Boards), req.Generation, boards, m.Generation())
	}

	for round := 0; round < 3; round++ {
		before, base := m.Boards(), m.Generation()
		m.Run(40)
		if _, err := p.Push(ctx); err != nil {
			t.Fatal(err)
		}
		req, _ := rec.last(t)
		want := polledSince(before, m.Boards())
		if req.BoardsSince != base || !reflect.DeepEqual(boardIDs(req.Boards), want) {
			t.Fatalf("round %d: boards_since %d carrying %v; want %d carrying %v",
				round, req.BoardsSince, boardIDs(req.Boards), base, want)
		}
	}

	// A failed push leaves the baseline alone: the next push carries the
	// union of both chunks' boards.
	before, base := m.Boards(), m.Generation()
	m.Run(40)
	rec.setFail(true)
	if _, err := p.Push(ctx); err == nil {
		t.Fatal("push through a failing hub succeeded")
	}
	rec.setFail(false)
	m.Run(40)
	if _, err := p.Push(ctx); err != nil {
		t.Fatal(err)
	}
	req, _ = rec.last(t)
	if want := polledSince(before, m.Boards()); req.BoardsSince != base || !reflect.DeepEqual(boardIDs(req.Boards), want) {
		t.Fatalf("push after a failure: boards_since %d carrying %d boards; want %d carrying %d",
			req.BoardsSince, len(req.Boards), base, len(want))
	}

	// Past the dirty log's reach the fleet can no longer name what
	// changed, so the push carries the full table.
	before = m.Boards()
	rec.setFail(true)
	for i := 0; i < 260; i++ {
		m.Run(1)
		if i%100 == 0 {
			if _, err := p.Push(ctx); err == nil {
				t.Fatal("push through a failing hub succeeded")
			}
		}
	}
	rec.setFail(false)
	if polled := polledSince(before, m.Boards()); len(polled) >= boards {
		t.Fatalf("every board polled in the stale span (%d); the fallback is unobservable", len(polled))
	}
	if _, err := p.Push(ctx); err != nil {
		t.Fatal(err)
	}
	if req, _ = rec.last(t); len(req.Boards) != boards {
		t.Fatalf("stale-baseline push carried %d boards, want all %d", len(req.Boards), boards)
	}
	if _, got := h.BoardsSince(0); !reflect.DeepEqual(got, wantTable("rack", m)) {
		t.Error("hub board table diverges from the fleet's")
	}
}

// TestHubDeltaFoldsToFullTable: a client folding ?since= deltas across
// interleaved delta pushes from two sources ends with exactly the table
// a full /api/fleet serves, and the deltas carry only changed boards.
func TestHubDeltaFoldsToFullTable(t *testing.T) {
	h := New()
	ts := httptest.NewServer(h.Handler(nil))
	defer ts.Close()
	ctx := context.Background()

	type src struct {
		m *fleet.Manager
		p *Pusher
	}
	var sources []src
	total := 0
	for i, cfg := range []fleet.Config{
		{Boards: 12, Seed: 5, ConfirmRuns: 1},
		{Boards: 9, Seed: 9, ConfirmRuns: 1},
	} {
		m, err := fleet.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, src{m, NewPusher(clientv1.New(ts.URL), "rack-"+strconv.Itoa(i), m)})
		total += cfg.Boards
	}

	reader := clientv1.New(ts.URL)
	table := map[string]apiv1.BoardStatus{}
	// fold applies one delta after checking it holds exactly the boards
	// that differ between the reader's table and the hub's full table.
	fold := func() {
		d, err := reader.FleetDelta(ctx, reader.Generation())
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			return
		}
		want := []string{}
		gen, full := h.BoardsSince(0)
		for _, b := range full {
			if table[b.ID] != b {
				want = append(want, b.ID)
			}
		}
		if got := boardIDs(d.Boards); d.Generation != gen || !reflect.DeepEqual(got, want) {
			t.Fatalf("delta since %d at generation %d carries %v, want %v at %d", d.Since, d.Generation, got, want, gen)
		}
		for _, b := range d.Boards {
			table[b.ID] = b
		}
	}
	for round := 0; round < 6; round++ {
		for i, s := range sources {
			s.m.Run(4)
			if _, err := s.p.Push(ctx); err != nil {
				t.Fatal(err)
			}
			if (round+i)%2 == 0 { // fold after some pushes, skip others
				fold()
			}
		}
	}
	fold()

	full, err := clientv1.New(ts.URL).FleetBoards(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Boards) != total || len(table) != total {
		t.Fatalf("full table %d boards, folded table %d, want %d", len(full.Boards), len(table), total)
	}
	for _, b := range full.Boards {
		if table[b.ID] != b {
			t.Errorf("folded board %s diverges from the full table", b.ID)
		}
	}
}

// TestHubNotModifiedPaths: an ETag match and ?since= at the generation
// answer 304 on /api/fleet, an ETag match answers 304 on a board's
// events, and a delta with no changed boards renders "[]". A ?since=
// past the generation counts another run's generations: it answers 200
// with every board.
func TestHubNotModifiedPaths(t *testing.T) {
	h := New()
	if _, err := h.Ingest(apiv1.IngestRequest{Source: "s", Generation: 1,
		Boards: []apiv1.BoardStatus{{ID: "board-00"}, {ID: "board-01"}},
		Events: mkEvents(1, 2)}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h.Handler(nil))
	defer ts.Close()

	get := func(path, etag string) (int, http.Header, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, string(body)
	}

	code, hdr, _ := get("/api/fleet", "")
	etag, gen := hdr.Get("ETag"), hdr.Get(apiv1.GenerationHeader)
	if code != http.StatusOK || etag == "" || gen != "1" {
		t.Fatalf("GET /api/fleet: %d etag %q generation %q", code, etag, gen)
	}
	if code, _, _ := get("/api/fleet", etag); code != http.StatusNotModified {
		t.Errorf("ETag match on /api/fleet: HTTP %d, want 304", code)
	}
	if code, _, _ := get("/api/fleet?since=1", ""); code != http.StatusNotModified {
		t.Errorf("?since=1 at generation 1: HTTP %d, want 304", code)
	}
	code, _, body := get("/api/fleet?since=7", "")
	var ahead apiv1.BoardsDelta
	if err := json.Unmarshal([]byte(body), &ahead); err != nil {
		t.Fatalf("?since=7 at generation 1: HTTP %d, %v", code, err)
	}
	if code != http.StatusOK || ahead.Generation != 1 || ahead.Since != 7 || len(ahead.Boards) != 2 {
		t.Errorf("?since=7 at generation 1: HTTP %d, generation %d since %d with %d boards, want 200, 1, 7 with 2",
			code, ahead.Generation, ahead.Since, len(ahead.Boards))
	}
	if code, _, _ := get("/api/fleet?since=x", ""); code != http.StatusBadRequest {
		t.Errorf("?since=x: HTTP %d, want 400", code)
	}

	const events = "/api/fleet/s/board-00/events?n=5"
	code, hdr, _ = get(events, "")
	if code != http.StatusOK || hdr.Get("ETag") == "" {
		t.Fatalf("GET events: %d etag %q", code, hdr.Get("ETag"))
	}
	if code, _, _ := get(events, hdr.Get("ETag")); code != http.StatusNotModified {
		t.Errorf("ETag match on events: HTTP %d, want 304", code)
	}
	if code, _, _ := get("/api/fleet/s/board-09/events", hdr.Get("ETag")); code != http.StatusNotFound {
		t.Errorf("unknown board with a matching ETag: HTTP %d, want 404", code)
	}

	// An ingest that changes events but no board advances the generation
	// with an empty board delta.
	if _, err := h.Ingest(apiv1.IngestRequest{Source: "s", Generation: 2, BoardsSince: 1,
		Events: mkEvents(3)}); err != nil {
		t.Fatal(err)
	}
	code, _, body = get("/api/fleet?since=1", "")
	var d apiv1.BoardsDelta
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || !strings.Contains(body, "\"boards\": []") || d.Generation != 2 || d.Since != 1 {
		t.Errorf("empty delta: HTTP %d body %s", code, body)
	}
}

// TestHubRefusesUnknownBaseline: a delta push against a generation the
// hub never ingested from that source is refused with 409 before any
// state changes, and counted.
func TestHubRefusesUnknownBaseline(t *testing.T) {
	h := New()
	reg := obs.NewRegistry()
	h.SetMetrics(reg)
	boards := []apiv1.BoardStatus{{ID: "board-00"}, {ID: "board-01"}}

	if _, err := h.Ingest(apiv1.IngestRequest{Source: "s", Generation: 4, BoardsSince: 3,
		Boards: boards}); !errors.Is(err, ErrUnknownBaseline) {
		t.Fatalf("delta push from an unknown source: %v, want ErrUnknownBaseline", err)
	}
	if len(h.Sources()) != 0 || h.Generation() != 0 {
		t.Fatalf("refused push changed state: sources %+v generation %d", h.Sources(), h.Generation())
	}
	if _, err := h.Ingest(apiv1.IngestRequest{Source: "s", Generation: 5, Boards: boards}); err != nil {
		t.Fatal(err)
	}
	gen := h.Generation()
	if _, err := h.Ingest(apiv1.IngestRequest{Source: "s", Generation: 9, BoardsSince: 6,
		Boards: boards[:1], Events: mkEvents(1)}); !errors.Is(err, ErrUnknownBaseline) {
		t.Fatalf("delta push against generation 6 of 5: %v, want ErrUnknownBaseline", err)
	}
	if s := h.Sources()[0]; s.Pushes != 1 || s.Events != 0 || s.Generation != 5 || h.Generation() != gen {
		t.Fatalf("refused push changed state: %+v generation %d", s, h.Generation())
	}
	if _, err := h.Ingest(apiv1.IngestRequest{Source: "s", Generation: 9, BoardsSince: 5,
		Boards: boards[:1]}); err != nil {
		t.Fatalf("delta push against the ingested generation: %v", err)
	}

	ts := httptest.NewServer(h.Handler(reg))
	defer ts.Close()
	_, err := clientv1.New(ts.URL).Ingest(context.Background(),
		apiv1.IngestRequest{Source: "s", Generation: 12, BoardsSince: 10})
	var apiErr *clientv1.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("HTTP delta push against an unknown baseline: %v, want 409", err)
	}
	if got := reg.Counter("xvolt_hub_resyncs_total", "").Value(); got != 3 {
		t.Errorf("xvolt_hub_resyncs_total = %v, want 3", got)
	}
	if got := reg.Counter("xvolt_hub_ingest_boards_total", "").Value(); got != 3 {
		t.Errorf("xvolt_hub_ingest_boards_total = %v, want 3 (2 + 1 accepted)", got)
	}
}

// TestHubRestartResyncsFromPusher: a fresh hub swapped in behind the
// same listener mid-run refuses the pusher's next delta with 409, the
// pusher resends its full retained state in the same Push, and the new
// hub ends with the fleet's dump and board table and no gaps.
func TestHubRestartResyncsFromPusher(t *testing.T) {
	m, err := fleet.New(fleet.Config{Boards: 5, Seed: 7, ConfirmRuns: 1, StoreCap: 6})
	if err != nil {
		t.Fatal(err)
	}
	rec := newIngestRecorder(New())
	ts := httptest.NewServer(rec)
	defer ts.Close()
	p := NewPusher(clientv1.New(ts.URL), "rack", m)
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		m.Run(30)
		if _, err := p.Push(ctx); err != nil {
			t.Fatal(err)
		}
	}

	fresh := New()
	rec.swap(fresh)
	m.Run(30)
	resp, err := p.Push(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	codes := append([]int(nil), rec.codes[len(rec.codes)-2:]...)
	refused := rec.reqs[len(rec.reqs)-2]
	rec.mu.Unlock()
	if !reflect.DeepEqual(codes, []int{http.StatusConflict, http.StatusOK}) || refused.BoardsSince == 0 {
		t.Fatalf("restart push statuses %v (refused boards_since %d), want a refused delta then 200",
			codes, refused.BoardsSince)
	}
	if req, _ := rec.last(t); req.BoardsSince != 0 || len(req.Boards) != 5 {
		t.Fatalf("resync push: boards_since %d with %d boards, want a full push", req.BoardsSince, len(req.Boards))
	}
	if m.Store().Dropped() == 0 {
		t.Fatal("fleet evicted nothing; the resync's gap accounting is untested")
	}

	var dump bytes.Buffer
	if err := fresh.WriteSourceDump(&dump, "rack"); err != nil {
		t.Fatal(err)
	}
	if want := localDump(t, m); dump.String() != want {
		t.Errorf("restarted hub dump diverges from the fleet:\nhub:\n%s\nfleet:\n%s", dump.String(), want)
	}
	if _, got := fresh.BoardsSince(0); !reflect.DeepEqual(got, wantTable("rack", m)) {
		t.Error("restarted hub board table diverges from the fleet's")
	}
	if s := fresh.Sources(); resp.Gaps != 0 || len(s) != 1 || s[0].Gaps != 0 || s[0].Boards != 5 {
		t.Errorf("restarted hub standing %+v, push gaps %d", s, resp.Gaps)
	}

	// The next push is a delta again.
	m.Run(3)
	if _, err := p.Push(ctx); err != nil {
		t.Fatal(err)
	}
	if req, code := rec.last(t); code != http.StatusOK || req.BoardsSince == 0 || len(req.Boards) > 3 {
		t.Errorf("push after resync: HTTP %d boards_since %d with %d boards", code, req.BoardsSince, len(req.Boards))
	}
}
