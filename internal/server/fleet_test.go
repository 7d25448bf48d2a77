package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"xvolt/internal/fleet"
	"xvolt/internal/obs"
)

// fleetServer runs a small fleet to steady state and serves it without a
// study framework attached (the xvolt-fleet daemon's configuration).
func fleetServer(t *testing.T) (*Server, *fleet.Manager, *obs.Registry) {
	t.Helper()
	m, err := fleet.New(fleet.Config{Boards: 4, Seed: 3, ConfirmRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	m.Run(60)
	s := New(nil)
	s.SetMetrics(reg)
	s.SetFleet(m)
	return s, m, reg
}

func TestFleetEndpoints(t *testing.T) {
	s, m, _ := fleetServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/api/fleet")
	if code != 200 {
		t.Fatalf("/api/fleet = %d", code)
	}
	var fleetDTO struct {
		Boards []map[string]interface{} `json:"boards"`
	}
	if err := json.Unmarshal([]byte(body), &fleetDTO); err != nil {
		t.Fatal(err)
	}
	if len(fleetDTO.Boards) != 4 {
		t.Fatalf("%d boards served, want 4", len(fleetDTO.Boards))
	}
	b0 := fleetDTO.Boards[0]
	if b0["id"] != "board-00" || b0["polls"].(float64) == 0 {
		t.Errorf("board 0 = %v", b0)
	}
	if b0["voltage_mv"].(float64) < b0["floor_mv"].(float64) {
		t.Errorf("board 0 below floor: %v", b0)
	}

	code, body = get(t, ts, "/api/fleet/health")
	if code != 200 {
		t.Fatalf("/api/fleet/health = %d", code)
	}
	var health struct {
		Boards int    `json:"boards"`
		Status string `json:"status"`
		States []struct {
			State  string `json:"state"`
			Boards int    `json:"boards"`
		} `json:"states"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Boards != 4 || len(health.States) != 4 {
		t.Fatalf("health = %+v", health)
	}
	total := 0
	for _, sc := range health.States {
		total += sc.Boards
	}
	if total != 4 {
		t.Errorf("state counts sum to %d, want 4", total)
	}
	if want := m.HealthAPIv1().Status; health.Status != want {
		t.Errorf("served status %q, manager says %q", health.Status, want)
	}

	code, body = get(t, ts, "/api/fleet/board-01/events")
	if code != 200 {
		t.Fatalf("board events = %d", code)
	}
	var events struct {
		Board  string                   `json:"board"`
		Events []map[string]interface{} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatal(err)
	}
	if events.Board != "board-01" || len(events.Events) == 0 {
		t.Fatalf("events = %+v", events)
	}
	for _, e := range events.Events {
		if e["board"] != "board-01" {
			t.Errorf("foreign event in board feed: %v", e)
		}
	}

	// The n query bounds the tail.
	_, body = get(t, ts, "/api/fleet/board-01/events?n=1")
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatal(err)
	}
	if len(events.Events) != 1 {
		t.Errorf("n=1 returned %d events", len(events.Events))
	}
	if code, _ := get(t, ts, "/api/fleet/board-01/events?n=junk"); code != 400 {
		t.Errorf("bad n = %d, want 400", code)
	}
	if code, _ := get(t, ts, "/api/fleet/board-99/events"); code != 404 {
		t.Errorf("unknown board = %d, want 404", code)
	}
}

// Without a fleet attached the fleet endpoints 404 instead of crashing,
// and a fleet can be attached (and detached) while serving.
func TestFleetEndpointsUnattached(t *testing.T) {
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/api/fleet", "/api/fleet/health", "/api/fleet/board-00/events"} {
		if code, _ := get(t, ts, path); code != 404 {
			t.Errorf("%s without fleet = %d, want 404", path, code)
		}
	}
	// A fleet-less server also has no study: those endpoints 404 too, but
	// the index still renders.
	if code, _ := get(t, ts, "/api/status"); code != 404 {
		t.Error("status without framework must 404")
	}
	if code, body := get(t, ts, "/"); code != 200 || !strings.Contains(body, "xvolt") {
		t.Errorf("index without framework = %d", code)
	}

	m, err := fleet.New(fleet.Config{Boards: 2, Seed: 1, ConfirmRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFleet(m)
	if code, _ := get(t, ts, "/api/fleet"); code != 200 {
		t.Error("fleet not served after SetFleet")
	}
	s.SetFleet(nil)
	if code, _ := get(t, ts, "/api/fleet"); code != 404 {
		t.Error("fleet still served after detach")
	}
}

// TestFleetMetricsExposition pins the acceptance criterion at the scrape
// level: the per-state gauges appear in the Prometheus text format and
// agree with /api/fleet/health.
func TestFleetMetricsExposition(t *testing.T) {
	s, m, _ := fleetServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, "# TYPE xvolt_fleet_boards gauge") {
		t.Error("missing xvolt_fleet_boards family")
	}
	h := m.HealthAPIv1()
	for _, sc := range h.States {
		line := `xvolt_fleet_boards{state="` + sc.State + `"} ` + strconv.Itoa(sc.Boards)
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
	for _, want := range []string{
		"xvolt_fleet_polls_total",
		"xvolt_fleet_runs_total",
		`xvolt_fleet_board_voltage_mv{board="board-00"}`,
		`xvolt_fleet_board_guardband_mv{board="board-03"}`,
		"xvolt_fleet_power_savings_mean",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// The /api/fleet snapshot is serialized once per fleet generation and
// revalidated for free: repeated GETs serve identical bytes with a
// generation-keyed ETag, a matching If-None-Match gets 304 with no body,
// and committing polls changes the generation (and the ETag) so caches
// never serve a stale snapshot.
func TestFleetSnapshotCaching(t *testing.T) {
	s, m, _ := fleetServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fetch := func(inm string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/fleet", nil)
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

	resp1, body1 := fetch("")
	if resp1.StatusCode != 200 {
		t.Fatalf("first GET = %d", resp1.StatusCode)
	}
	etag := resp1.Header.Get("ETag")
	want := fmt.Sprintf("\"fleet-%d\"", m.Generation())
	if etag != want {
		t.Fatalf("ETag = %q, want %q", etag, want)
	}

	// Unchanged generation: identical bytes, and a conditional GET 304s.
	if resp2, body2 := fetch(""); resp2.StatusCode != 200 || body2 != body1 {
		t.Fatalf("repeat GET diverged: %d, equal=%v", resp2.StatusCode, body2 == body1)
	}
	if resp3, body3 := fetch(etag); resp3.StatusCode != http.StatusNotModified || body3 != "" {
		t.Fatalf("conditional GET = %d with %d body bytes, want 304 empty", resp3.StatusCode, len(body3))
	}

	// A poll commit bumps the generation: the stale ETag revalidates to a
	// fresh 200 with a new tag.
	gen := m.Generation()
	m.Run(4)
	if m.Generation() == gen {
		t.Fatal("Run did not bump the generation")
	}
	resp4, body4 := fetch(etag)
	if resp4.StatusCode != 200 || resp4.Header.Get("ETag") == etag {
		t.Fatalf("post-commit conditional GET = %d, ETag %q", resp4.StatusCode, resp4.Header.Get("ETag"))
	}
	var dto struct {
		Boards []map[string]interface{} `json:"boards"`
	}
	if err := json.Unmarshal([]byte(body4), &dto); err != nil {
		t.Fatal(err)
	}
	if len(dto.Boards) != 4 {
		t.Fatalf("post-commit snapshot has %d boards", len(dto.Boards))
	}

	// Detach-and-reattach must not serve the old manager's cache.
	s.SetFleet(nil)
	if code, _ := get(t, ts, "/api/fleet"); code != 404 {
		t.Fatal("detached fleet still served")
	}
	s.SetFleet(m)
	if resp5, body5 := fetch(""); resp5.StatusCode != 200 || body5 != body4 {
		t.Fatal("reattached fleet serves wrong snapshot")
	}
}
