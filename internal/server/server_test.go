package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xvolt/internal/core"
	"xvolt/internal/obs"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// studyServer runs a small campaign and publishes it.
func studyServer(t *testing.T) (*Server, *core.Framework) {
	t.Helper()
	fw := core.New(xgene.New(silicon.NewChip(silicon.TTT, 1)))
	fw.SetTrace(trace.New(0))
	spec, err := workload.Lookup("mcf/ref")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig([]*workload.Spec{spec}, []int{4})
	cfg.Runs = 3
	results, err := fw.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fw)
	s.SetResults(results)
	return s, fw
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
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

func TestEndpoints(t *testing.T) {
	s, _ := studyServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}

	code, body = get(t, ts, "/api/status")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var status map[string]interface{}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if status["chip"] != "TTT" {
		t.Errorf("status chip = %v", status["chip"])
	}
	if status["pmd_voltage_mv"].(float64) != 980 {
		t.Errorf("status voltage = %v", status["pmd_voltage_mv"])
	}
	if status["watchdog_recoveries"].(float64) < 1 {
		t.Errorf("status recoveries = %v (sweep reached the crash region)", status["watchdog_recoveries"])
	}
	if status["campaigns_done"].(float64) != 1 {
		t.Errorf("campaigns = %v", status["campaigns_done"])
	}

	code, body = get(t, ts, "/api/results")
	if code != 200 {
		t.Fatalf("results = %d", code)
	}
	var results []map[string]interface{}
	if err := json.Unmarshal([]byte(body), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0]["benchmark"] != "mcf" {
		t.Fatalf("results = %v", results)
	}
	if results[0]["safe_vmin_mv"].(float64) < 800 {
		t.Errorf("safe vmin = %v", results[0]["safe_vmin_mv"])
	}
	steps := results[0]["steps"].([]interface{})
	if len(steps) < 10 {
		t.Errorf("only %d steps serialized", len(steps))
	}
	first := steps[0].(map[string]interface{})
	if first["region"] != "safe" {
		t.Errorf("first step region = %v", first["region"])
	}

	code, body = get(t, ts, "/api/results.csv")
	if code != 200 || !strings.HasPrefix(body, "chip,benchmark,") {
		t.Errorf("csv = %d %q...", code, body[:40])
	}
	if !strings.Contains(body, "mcf") {
		t.Error("csv missing campaign rows")
	}

	code, body = get(t, ts, "/api/trace?n=20")
	if code != 200 {
		t.Fatalf("trace = %d", code)
	}
	if lines := strings.Count(body, "\n"); lines != 20 {
		t.Errorf("trace tail has %d lines, want 20", lines)
	}
	if code, _ := get(t, ts, "/api/trace?n=bogus"); code != 400 {
		t.Errorf("bad n = %d", code)
	}
	if code, _ := get(t, ts, "/api/trace?n=0"); code != 400 {
		t.Errorf("n=0 = %d", code)
	}

	code, body = get(t, ts, "/")
	if code != 200 || !strings.Contains(body, "xvolt") {
		t.Errorf("index = %d", code)
	}
	if code, _ := get(t, ts, "/nope"); code != 404 {
		t.Errorf("unknown path = %d", code)
	}
}

// A server over a framework without a trace serves an empty tail rather
// than crashing (nil log is inert).
func TestTraceWithoutLog(t *testing.T) {
	fw := core.New(xgene.New(silicon.NewChip(silicon.TFF, 2)))
	s := New(fw)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts, "/api/trace")
	if code != 200 || body != "" {
		t.Errorf("traceless tail = %d %q", code, body)
	}
}

// Results can be republished as the study grows.
func TestSetResultsReplaces(t *testing.T) {
	s, _ := studyServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.SetResults(nil)
	code, body := get(t, ts, "/api/results")
	if code != 200 || strings.Contains(body, "mcf") {
		t.Errorf("stale results still served: %q", body)
	}
}

// The /metrics endpoint serves the attached registry's exposition, and
// the middleware accounts every request by route and status code.
func TestMetricsEndpoint(t *testing.T) {
	fw := core.New(xgene.New(silicon.NewChip(silicon.TTT, 1)))
	reg := obs.NewRegistry()
	fw.SetMetrics(reg)
	fw.SetTrace(trace.New(0))
	spec, err := workload.Lookup("mcf/ref")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig([]*workload.Spec{spec}, []int{4})
	cfg.Runs = 2
	results, err := fw.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fw)
	s.SetMetrics(reg)
	s.SetResults(results)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/api/status")
	get(t, ts, "/api/status")
	if code, _ := get(t, ts, "/api/trace?n=bogus"); code != 400 {
		t.Fatalf("bad trace query = %d", code)
	}

	code, body := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	// The acceptance-critical families, all through one scrape.
	for _, want := range []string{
		"# TYPE xvolt_runs_total counter",
		`xvolt_runs_total{class="SC"}`,
		"xvolt_watchdog_recoveries_total",
		"# TYPE xvolt_http_request_seconds summary",
		`xvolt_http_request_seconds{route="/api/status",quantile="0.99"}`,
		`xvolt_http_request_seconds_count{route="/api/status"} 2`,
		"# TYPE xvolt_campaign_seconds summary",
		"xvolt_campaign_seconds_count 1",
		`xvolt_http_requests_total{route="/api/status",code="200"} 2`,
		`xvolt_http_requests_total{route="/api/trace",code="400"} 1`,
		`xvolt_trace_events_total{kind="run"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The scrape itself is counted on the next scrape.
	_, body = get(t, ts, "/metrics")
	if !strings.Contains(body, `xvolt_http_requests_total{route="/metrics",code="200"} 1`) {
		t.Error("/metrics scrape not self-counted")
	}
}

// Without SetMetrics the server still serves /metrics (empty exposition)
// and the middleware stays out of the way.
func TestMetricsEndpointUnmetered(t *testing.T) {
	s, _ := studyServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts, "/metrics")
	if code != 200 || body != "" {
		t.Errorf("unmetered /metrics = %d %q", code, body)
	}
}

// snapshot hands out a copy: republishing results while readers iterate
// the old slice must not race (run under -race) nor disturb readers.
func TestSnapshotCopyUnderConcurrentSetResults(t *testing.T) {
	s, _ := studyServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	results := s.snapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s.SetResults(nil)
			s.SetResults(results)
		}
	}()
	for i := 0; i < 50; i++ {
		if code, _ := get(t, ts, "/api/results"); code != 200 {
			t.Fatalf("results = %d", code)
		}
		if code, _ := get(t, ts, "/api/results.csv"); code != 200 {
			t.Fatalf("csv = %d", code)
		}
	}
	<-done
	// Mutating the returned copy must not affect the server's slice.
	snap := s.snapshot()
	if len(snap) == 0 {
		t.Fatal("no results")
	}
	snap[0] = nil
	if s.snapshot()[0] == nil {
		t.Error("snapshot returned the internal slice header")
	}
}
