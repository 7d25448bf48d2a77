package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"xvolt/internal/fleet"
	"xvolt/internal/obs"
	"xvolt/internal/trace"
)

// alertRig wires a fleet as xvolt-fleet does — its metrics registry, a
// tracer and the fleet's alert rules on the fleet's clock — and, with
// served set, attaches a server's metrics to the same registry and
// serves one request of each fleet route, as the daemon and perfbench
// do. The engine has evaluated once.
func alertRig(tb testing.TB, boards int, served bool) *obs.AlertEngine {
	tb.Helper()
	m, err := fleet.New(fleet.Config{Boards: boards, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = m.Close() })
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	m.SetTracer(trace.NewTracer(0, 1))
	e := obs.NewAlertEngine(reg, m.Now)
	if err := e.Add(fleet.AlertRules()...); err != nil {
		tb.Fatal(err)
	}
	m.Run(32)
	if served {
		s := New(nil)
		s.SetMetrics(reg)
		s.SetFleet(m)
		s.SetAlerts(e)
		h := s.Handler()
		for _, path := range []string{"/api/fleet", "/api/fleet?since=1", "/api/fleet/health",
			"/api/fleet/board-01/events?n=5", "/api/alerts", "/metrics"} {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		}
	}
	e.Eval()
	return e
}

// TestAlertEvalAllocsIndependentOfRegistry: an evaluation reads only
// the samples the fleet's rules name, so the server's HTTP families on
// the same registry (a request counter per route and code, an HDR per
// route) add no allocation to it.
func TestAlertEvalAllocsIndependentOfRegistry(t *testing.T) {
	bare, served := alertRig(t, 16, false), alertRig(t, 16, true)
	a := testing.AllocsPerRun(50, func() { bare.Eval() })
	b := testing.AllocsPerRun(50, func() { served.Eval() })
	if a != b {
		t.Errorf("Eval allocates %v times per call on the fleet's registry and %v with the server's metrics on it", a, b)
	}
}

// TestBodiesDeclareLength: every api/v1 body either tier writes carries
// its Content-Length, so net/http never chunks one, however long: each
// body here but the alerts document is past net/http's 2 kB buffer.
func TestBodiesDeclareLength(t *testing.T) {
	m, err := fleet.New(fleet.Config{Boards: 16, Seed: 3, ConfirmRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Run(400)
	s := New(nil)
	s.SetFleet(m)
	s.SetAlerts(obs.NewAlertEngine(obs.NewRegistry(), nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/api/fleet", "/api/fleet?since=0", "/api/fleet?since=" + strconv.FormatUint(m.Generation()-1, 10),
		"/api/fleet/health", "/api/fleet/board-01/events", "/api/alerts"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("GET %s: %d, Content-Length %d, transfer encoding %v, %d body bytes",
				path, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// BenchmarkAlertEval times one evaluation of the fleet's alert rules
// over a daemon-wired 2,000-board registry with the server's metrics on
// it: the read of the five samples the rules name and the state
// machines. One op is one Eval.
func BenchmarkAlertEval(b *testing.B) {
	e := alertRig(b, 2000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval()
	}
}
