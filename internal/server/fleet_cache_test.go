package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/fleet"
)

// countingFleet wraps a fleet and counts the health and event-tail
// reads, so the cache tests can assert that a generation-cache hit
// serves without touching fleet state.
type countingFleet struct {
	FleetReader
	healthCalls atomic.Int64
	eventsCalls atomic.Int64
}

func (c *countingFleet) HealthAPIv1() apiv1.HealthSummary {
	c.healthCalls.Add(1)
	return c.FleetReader.HealthAPIv1()
}

func (c *countingFleet) EventsAPIv1(id string, n int) []apiv1.Event {
	c.eventsCalls.Add(1)
	return c.FleetReader.EventsAPIv1(id, n)
}

func cachedFleetServer(t *testing.T) (*httptest.Server, *countingFleet, *fleet.Manager) {
	t.Helper()
	m, err := fleet.New(fleet.Config{Boards: 4, Seed: 3, ConfirmRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(60)
	cf := &countingFleet{FleetReader: m}
	s := New(nil)
	s.SetFleet(cf)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, cf, m
}

func condGet(t *testing.T, ts *httptest.Server, path, inm string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
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
	return resp, string(body)
}

// TestFleetHealthCaching pins the satellite PR 7 left behind: the health
// summary is aggregated once per generation; cache hits serve the cached
// bytes without re-walking boards, and conditional GETs 304 without
// touching the fleet at all.
func TestFleetHealthCaching(t *testing.T) {
	ts, cf, m := cachedFleetServer(t)

	resp1, body1 := condGet(t, ts, "/api/fleet/health", "")
	if resp1.StatusCode != 200 {
		t.Fatalf("first GET = %d", resp1.StatusCode)
	}
	etag := resp1.Header.Get("ETag")
	if want := fmt.Sprintf("\"fleet-health-%d\"", m.Generation()); etag != want {
		t.Fatalf("ETag = %q, want %q", etag, want)
	}
	walks := cf.healthCalls.Load()
	if walks == 0 {
		t.Fatal("first GET never aggregated health")
	}

	// Cache hit: identical bytes, no further HealthAPIv1() aggregation.
	resp2, body2 := condGet(t, ts, "/api/fleet/health", "")
	if resp2.StatusCode != 200 || body2 != body1 {
		t.Fatalf("repeat GET diverged: %d, equal=%v", resp2.StatusCode, body2 == body1)
	}
	if got := cf.healthCalls.Load(); got != walks {
		t.Fatalf("cache hit re-walked boards: HealthAPIv1() calls %d → %d", walks, got)
	}

	// Conditional GET: 304, empty body, still no aggregation.
	resp3, body3 := condGet(t, ts, "/api/fleet/health", etag)
	if resp3.StatusCode != http.StatusNotModified || body3 != "" {
		t.Fatalf("conditional GET = %d with %d body bytes, want 304 empty", resp3.StatusCode, len(body3))
	}
	if got := cf.healthCalls.Load(); got != walks {
		t.Fatalf("304 re-walked boards: HealthAPIv1() calls %d → %d", walks, got)
	}

	// A commit bumps the generation: the stale tag revalidates to fresh
	// bytes under a new tag.
	m.Run(4)
	resp4, _ := condGet(t, ts, "/api/fleet/health", etag)
	if resp4.StatusCode != 200 || resp4.Header.Get("ETag") == etag {
		t.Fatalf("post-commit conditional GET = %d, ETag %q", resp4.StatusCode, resp4.Header.Get("ETag"))
	}
	if got := cf.healthCalls.Load(); got == walks {
		t.Fatal("post-commit GET served the stale generation from cache")
	}
}

// TestFleetEventsCaching: the per-board event tails get the same
// generation-keyed treatment, with the small ring keyed on (board, n).
func TestFleetEventsCaching(t *testing.T) {
	ts, cf, m := cachedFleetServer(t)

	resp1, body1 := condGet(t, ts, "/api/fleet/board-01/events?n=5", "")
	if resp1.StatusCode != 200 {
		t.Fatalf("first GET = %d", resp1.StatusCode)
	}
	etag := resp1.Header.Get("ETag")
	if want := fmt.Sprintf("\"fleet-ev-%d\"", m.Generation()); etag != want {
		t.Fatalf("ETag = %q, want %q", etag, want)
	}

	walks := cf.eventsCalls.Load()
	resp2, body2 := condGet(t, ts, "/api/fleet/board-01/events?n=5", "")
	if resp2.StatusCode != 200 || body2 != body1 {
		t.Fatalf("repeat GET diverged: %d, equal=%v", resp2.StatusCode, body2 == body1)
	}
	if got := cf.eventsCalls.Load(); got != walks {
		t.Fatalf("cache hit re-walked the store: EventsAPIv1() calls %d → %d", walks, got)
	}

	// A different n is a different resource: fresh body, same tag space.
	_, bodyN := condGet(t, ts, "/api/fleet/board-01/events?n=1", "")
	if bodyN == body1 {
		t.Fatal("different n served the same cached body")
	}

	if resp3, body3 := condGet(t, ts, "/api/fleet/board-01/events?n=5", etag); resp3.StatusCode != http.StatusNotModified || body3 != "" {
		t.Fatalf("conditional GET = %d with %d body bytes, want 304 empty", resp3.StatusCode, len(body3))
	}

	m.Run(4)
	if resp4, _ := condGet(t, ts, "/api/fleet/board-01/events?n=5", etag); resp4.StatusCode != 200 || resp4.Header.Get("ETag") == etag {
		t.Fatalf("post-commit conditional GET = %d, ETag %q", resp4.StatusCode, resp4.Header.Get("ETag"))
	}
}

// TestFleetDeltaServing: /api/fleet?since=<gen> serves only the boards
// that committed after that generation, advertises the generation to
// resume from via X-Fleet-Generation, and 304s a current client.
func TestFleetDeltaServing(t *testing.T) {
	ts, _, m := cachedFleetServer(t)

	resp, body := condGet(t, ts, "/api/fleet", "")
	if resp.StatusCode != 200 {
		t.Fatalf("full GET = %d", resp.StatusCode)
	}
	gen := resp.Header.Get("X-Fleet-Generation")
	if want := fmt.Sprintf("%d", m.Generation()); gen != want {
		t.Fatalf("X-Fleet-Generation = %q, want %q", gen, want)
	}
	var full struct {
		Boards []json.RawMessage `json:"boards"`
	}
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatal(err)
	}

	// Current client: delta poll answers 304 with no body.
	resp2, body2 := condGet(t, ts, "/api/fleet?since="+gen, "")
	if resp2.StatusCode != http.StatusNotModified || body2 != "" {
		t.Fatalf("current-since GET = %d with %d body bytes, want 304 empty", resp2.StatusCode, len(body2))
	}

	// After commits, the delta holds strictly fewer boards than the fleet
	// (one Run dirties one board of the four here).
	m.Run(1)
	resp3, body3 := condGet(t, ts, "/api/fleet?since="+gen, "")
	if resp3.StatusCode != 200 {
		t.Fatalf("delta GET = %d", resp3.StatusCode)
	}
	var delta struct {
		Generation uint64            `json:"generation"`
		Since      uint64            `json:"since"`
		Boards     []json.RawMessage `json:"boards"`
	}
	if err := json.Unmarshal([]byte(body3), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Generation != m.Generation() || fmt.Sprintf("%d", delta.Since) != gen {
		t.Fatalf("delta header = (%d, %d), want (%d, %s)", delta.Generation, delta.Since, m.Generation(), gen)
	}
	if len(delta.Boards) == 0 || len(delta.Boards) >= len(full.Boards) {
		t.Fatalf("delta holds %d of %d boards, want a strict non-empty subset", len(delta.Boards), len(full.Boards))
	}
	if g := resp3.Header.Get("X-Fleet-Generation"); g != fmt.Sprintf("%d", delta.Generation) {
		t.Fatalf("delta X-Fleet-Generation = %q, body says %d", g, delta.Generation)
	}

	// Malformed since is a client error, not a fleet walk.
	if resp4, _ := condGet(t, ts, "/api/fleet?since=banana", ""); resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since = %d, want 400", resp4.StatusCode)
	}
}

// TestFleetInterfaceAttachment: a manager serves through the
// interface-typed attachment point.
func TestFleetInterfaceAttachment(t *testing.T) {
	m, err := fleet.New(fleet.Config{Boards: 3, Seed: 5, ConfirmRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(30)
	s := New(nil)
	s.SetFleet(m)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/api/fleet"); code != 200 || len(body) == 0 {
		t.Fatalf("/api/fleet via a Manager = %d", code)
	}
	if code, _ := get(t, ts, "/api/fleet/health"); code != 200 {
		t.Fatal("/api/fleet/health via a Manager failed")
	}
	if code, _ := get(t, ts, "/api/fleet/board-02/events"); code != 200 {
		t.Fatal("/api/fleet/{board}/events via a Manager failed")
	}
}
