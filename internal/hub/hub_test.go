package hub

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	apiv1 "xvolt/api/v1"
	clientv1 "xvolt/client/v1"
	"xvolt/internal/fleet"
	"xvolt/internal/obs"
)

// localDump renders a fleet's own dump body (the `xvolt-fleet -dump`
// output minus its header line) — the oracle the hub's per-source dump
// must match byte for byte.
func localDump(t *testing.T, m *fleet.Manager) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Store().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("# health transitions\n")
	if err := m.WriteTransitions(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestHubDumpParity is the cross-process determinism contract: two
// fleets pushing incrementally through the real HTTP stack must leave
// the hub with per-source dumps byte-identical to each source's own
// rendering, and a merged view that accounts for every board.
func TestHubDumpParity(t *testing.T) {
	h := New()
	reg := obs.NewRegistry()
	h.SetMetrics(reg)
	ts := httptest.NewServer(h.Handler(reg))
	defer ts.Close()

	type src struct {
		name string
		m    *fleet.Manager
		p    *Pusher
	}
	mkFleet := func(name string, cfg fleet.Config) src {
		m, err := fleet.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return src{name, m, NewPusher(clientv1.New(ts.URL), name, m)}
	}
	sources := []src{
		mkFleet("rack-a", fleet.Config{Boards: 4, Seed: 5, ConfirmRuns: 1}),
		mkFleet("rack-b", fleet.Config{Boards: 3, Seed: 9, ConfirmRuns: 1}),
	}

	// Interleaved incremental pushes: each round advances both fleets and
	// pushes the tail, so dedup-merge updates propagate across rounds.
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		for _, s := range sources {
			s.m.Run(25)
			resp, err := s.p.Push(ctx)
			if err != nil {
				t.Fatalf("%s round %d: %v", s.name, round, err)
			}
			if resp.Gaps != 0 {
				t.Fatalf("%s round %d: hub reports %d gaps", s.name, round, resp.Gaps)
			}
		}
	}

	wantBoards := 0
	var wantPolls uint64
	for _, s := range sources {
		want := localDump(t, s.m)
		code, got := httpGet(t, ts.URL+"/api/hub/sources/"+s.name+"/dump")
		if code != http.StatusOK {
			t.Fatalf("%s dump: HTTP %d", s.name, code)
		}
		if got != want {
			t.Errorf("%s dump diverges from source rendering:\nhub:\n%s\nsource:\n%s", s.name, got, want)
		}
		hSum := s.m.HealthAPIv1()
		wantBoards += hSum.Boards
		wantPolls += hSum.Polls
	}

	// The same typed client that talks to a fleet talks to the hub.
	c := clientv1.New(ts.URL)
	boards, err := c.FleetBoards(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(boards.Boards) != wantBoards {
		t.Errorf("global view has %d boards, want %d", len(boards.Boards), wantBoards)
	}
	for i, b := range boards.Boards {
		if i > 0 && boards.Boards[i-1].ID >= b.ID {
			t.Errorf("global board order not sorted: %q before %q", boards.Boards[i-1].ID, b.ID)
		}
		if !strings.Contains(b.ID, "/") {
			t.Errorf("board id %q not source-namespaced", b.ID)
		}
	}
	if gen := c.Generation(); gen == 0 {
		t.Error("hub did not advertise a generation")
	} else if d, err := c.FleetDelta(ctx, gen); err != nil || d != nil {
		t.Errorf("delta while current = (%+v, %v), want (nil, nil)", d, err)
	}
	if d, err := c.FleetDelta(ctx, 0); err != nil || d == nil || len(d.Boards) != wantBoards {
		t.Errorf("bootstrap delta = (%+v, %v), want all %d boards", d, err, wantBoards)
	}

	sum, err := c.FleetHealth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Boards != wantBoards || sum.Polls != wantPolls {
		t.Errorf("merged health = %d boards %d polls, want %d/%d",
			sum.Boards, sum.Polls, wantBoards, wantPolls)
	}

	// Per-source standing: no gaps, push counts, sorted order.
	code, body := httpGet(t, ts.URL+"/api/hub/sources")
	if code != http.StatusOK || !strings.Contains(body, "rack-a") || !strings.Contains(body, "rack-b") {
		t.Errorf("sources doc (HTTP %d): %s", code, body)
	}
	srcs := h.Sources()
	if len(srcs) != 2 || srcs[0].Source != "rack-a" || srcs[1].Source != "rack-b" {
		t.Fatalf("sources = %+v", srcs)
	}
	for _, s := range srcs {
		if s.Gaps != 0 || s.Pushes != 4 || s.Events == 0 {
			t.Errorf("source %s standing = %+v", s.Source, s)
		}
	}

	// Board events round-trip through the namespaced route.
	first := boards.Boards[0].ID
	ev, err := c.BoardEvents(ctx, first, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Board != first || len(ev.Events) == 0 {
		t.Errorf("hub board events = %+v", ev)
	}
	if _, err := c.BoardEvents(ctx, "rack-a/board-99", 5); err == nil {
		t.Error("unknown hub board did not 404")
	}
	if code, _ := httpGet(t, ts.URL+"/api/hub/sources/rack-z/dump"); code != http.StatusNotFound {
		t.Errorf("unknown source dump: HTTP %d, want 404", code)
	}
	if got := reg.Gauge("xvolt_hub_sources", "").Value(); got != 2 {
		t.Errorf("xvolt_hub_sources gauge = %v, want 2", got)
	}
}

func mkEvents(seqs ...uint64) []apiv1.Event {
	out := make([]apiv1.Event, len(seqs))
	for i, s := range seqs {
		out[i] = apiv1.Event{Seq: s, At: time.Duration(s) * time.Second,
			Board: "board-00", Kind: "sdc-observed", Count: 1, Msg: "m"}
	}
	return out
}

// TestHubGapDetection: missing seqs beyond the source's own eviction
// counter are flagged as loss; explained ones are not.
func TestHubGapDetection(t *testing.T) {
	h := New()
	resp, err := h.Ingest(apiv1.IngestRequest{Source: "s", Events: mkEvents(1, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.NewEvents != 3 || resp.Gaps != 0 || resp.NextSeq != 4 {
		t.Fatalf("dense push resp = %+v", resp)
	}

	// Seqs 4 and 5 never arrive; the source admits one eviction — one
	// missing seq remains unexplained.
	resp, err = h.Ingest(apiv1.IngestRequest{Source: "s", Events: mkEvents(6, 7, 8),
		Health: &apiv1.HealthSummary{DroppedEvents: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gaps != 1 || resp.NextSeq != 9 {
		t.Fatalf("gapped push resp = %+v, want gaps=1 next=9", resp)
	}

	// The source later reports enough evictions to explain everything.
	resp, err = h.Ingest(apiv1.IngestRequest{Source: "s",
		Health: &apiv1.HealthSummary{DroppedEvents: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gaps != 0 {
		t.Fatalf("explained push resp = %+v, want gaps=0", resp)
	}
}

// TestHubIdempotentIngest: replaying a push changes nothing — not even
// the generation — and dedup-merge updates count as updates, not news.
func TestHubIdempotentIngest(t *testing.T) {
	h := New()
	req := apiv1.IngestRequest{
		Source: "s", Generation: 3, VirtualNow: 10 * time.Second,
		Boards:      []apiv1.BoardStatus{{ID: "board-00", State: "healthy"}},
		Events:      mkEvents(1, 2),
		Transitions: []apiv1.Transition{{Seq: 1, Board: "board-00", From: "healthy", To: "degraded"}},
		Health:      &apiv1.HealthSummary{Boards: 1},
	}
	if _, err := h.Ingest(req); err != nil {
		t.Fatal(err)
	}
	gen := h.Generation()

	resp, err := h.Ingest(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.NewEvents != 0 || resp.UpdatedEvents != 0 || resp.DuplicateEvents != 2 || resp.NewTransitions != 0 {
		t.Fatalf("replayed push resp = %+v, want all-duplicate", resp)
	}
	if h.Generation() != gen {
		t.Errorf("replay bumped generation %d → %d", gen, h.Generation())
	}

	// A merged event (same seq, higher count) is an update.
	merged := mkEvents(2)
	merged[0].Count = 3
	merged[0].LastAt = 15 * time.Second
	resp, err = h.Ingest(apiv1.IngestRequest{Source: "s", Events: merged})
	if err != nil {
		t.Fatal(err)
	}
	if resp.UpdatedEvents != 1 || resp.NewEvents != 0 {
		t.Fatalf("merge push resp = %+v, want 1 update", resp)
	}
	if h.Generation() == gen {
		t.Error("merge update did not bump generation")
	}
	var dump bytes.Buffer
	if err := h.WriteSourceDump(&dump, "s"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "x3") {
		t.Errorf("dump lost merge multiplicity:\n%s", dump.String())
	}
}

// TestHubBadSource: unusable names are rejected (they would break the
// "source/board" namespacing).
func TestHubBadSource(t *testing.T) {
	h := New()
	for _, name := range []string{"", "a/b"} {
		if _, err := h.Ingest(apiv1.IngestRequest{Source: name}); !errors.Is(err, ErrBadSource) {
			t.Errorf("Ingest(%q) = %v, want ErrBadSource", name, err)
		}
	}
}

// TestHubStatusFromMergedCounts: the hub derives its status from the
// merged state counts by the fleet's rule, so a pushed status that
// contradicts its own counts does not decide it.
func TestHubStatusFromMergedCounts(t *testing.T) {
	h := New()
	push := func(source, status string, states ...apiv1.StateCount) {
		t.Helper()
		if _, err := h.Ingest(apiv1.IngestRequest{Source: source,
			Health: &apiv1.HealthSummary{Status: status, States: states}}); err != nil {
			t.Fatal(err)
		}
	}
	push("a", "unhealthy", apiv1.StateCount{State: "healthy", Boards: 3})
	if got := h.HealthAPIv1().Status; got != "ok" {
		t.Errorf("status = %q with every board healthy, want ok", got)
	}
	push("b", "ok", apiv1.StateCount{State: "recovering", Boards: 1})
	got := h.HealthAPIv1()
	if got.Status != "degraded" {
		t.Errorf("status = %q with a recovering board, want degraded", got.Status)
	}
	want := []apiv1.StateCount{{State: "healthy", Boards: 3}, {State: "degraded"},
		{State: "unhealthy"}, {State: "recovering", Boards: 1}}
	if !reflect.DeepEqual(got.States, want) {
		t.Errorf("merged states = %+v, want %+v", got.States, want)
	}
}

// BenchmarkHubIngest measures the ingest path with batches of fresh
// events, the steady-state shape of a pushing fleet.
func BenchmarkHubIngest(b *testing.B) {
	const batch = 128
	h := New()
	reqs := make([]apiv1.IngestRequest, b.N)
	var seq uint64
	for i := range reqs {
		events := make([]apiv1.Event, batch)
		for j := range events {
			seq++
			events[j] = apiv1.Event{
				Seq: seq, At: time.Duration(seq) * time.Millisecond,
				Board: fmt.Sprintf("board-%02d", int(seq)%16),
				Kind:  "margin-step", Count: 1, Msg: "step",
			}
		}
		reqs[i] = apiv1.IngestRequest{Source: "bench", Events: events,
			Health: &apiv1.HealthSummary{Boards: 16}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Ingest(reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// countingTransport tallies the request body bytes it sends.
type countingTransport struct{ sent int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.sent += r.ContentLength
	return http.DefaultTransport.RoundTrip(r)
}

// BenchmarkPusherPush measures steady-state replication: one op is the
// daemon's Run(32) chunk on a 2,000-board fleet followed by one Push to
// an in-process hub over loopback HTTP. push-B/op is the request body
// the push sent — the boards, events and transitions of one chunk.
func BenchmarkPusherPush(b *testing.B) {
	m, err := fleet.New(fleet.Config{Boards: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(New().Handler(nil))
	defer ts.Close()
	ct := &countingTransport{}
	p := NewPusher(clientv1.New(ts.URL, clientv1.WithHTTPClient(&http.Client{Transport: ct})), "bench", m)
	ctx := context.Background()
	m.Run(32)
	if _, err := p.Push(ctx); err != nil {
		b.Fatal(err) // the first push carries the whole fleet
	}
	ct.sent = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(32)
		if _, err := p.Push(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ct.sent)/float64(b.N), "push-B/op")
}
