// Package server exposes a characterization study over HTTP — the "cloud"
// sink of the paper's Fig. 2 pipeline, where the framework ships its raw
// data and parsed results. It serves live board status (voltage, boots,
// watchdog recoveries, PMpro power), the parsed campaign results as JSON
// and CSV, and the framework's trace tail.
package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/core"
	"xvolt/internal/csvutil"
	"xvolt/internal/obs"
	"xvolt/internal/trace"
)

// Server publishes one framework's study and, optionally, a fleet.
type Server struct {
	mu      sync.Mutex
	fw      *core.Framework
	results []*core.CampaignResult
	weights core.Weights

	// fleetAPI serves the /api/fleet routes from the attached fleet;
	// nil while none is attached.
	fleetAPI atomic.Pointer[FleetAPI]

	metrics atomic.Pointer[httpMetrics]
	tracer  atomic.Pointer[trace.Tracer]
	alerts  atomic.Pointer[obs.AlertEngine]
}

// httpMetrics are the per-endpoint request instruments plus the registry
// they live in (for the /metrics exposition itself).
type httpMetrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec // route, code
	latency  *obs.HDRVec     // route
}

// routes are the served patterns, known up front so the latency families
// can be pre-seeded and the path label space stays bounded — a request
// label must never be attacker-chosen.
var routes = []string{"/healthz", "/metrics", "/api/status", "/api/results",
	"/api/results.csv", "/api/trace", "/api/traces", "/api/alerts",
	"/api/fleet", "/api/fleet/health", "/api/fleet/{board}/events",
	"/", otherRoute}

// otherRoute is the single label under which every request that matches
// no registered route is counted, keeping the metric cardinality bounded
// no matter what paths clients probe.
const otherRoute = "other"

// New wraps a framework (which may still be running campaigns; may be nil
// for a fleet-only server). Results are published with SetResults as they
// are parsed.
func New(fw *core.Framework) *Server {
	return &Server{fw: fw, weights: core.PaperWeights}
}

// SetFleet attaches (or, with nil, detaches) a fleet; the /api/fleet
// endpoints serve from it under the ETag prefix "fleet". Safe to call
// while serving.
func (s *Server) SetFleet(f FleetReader) {
	if f == nil {
		s.fleetAPI.Store(nil)
		return
	}
	s.fleetAPI.Store(NewFleetAPI("fleet", f))
}

// SetMetrics attaches a registry: every endpoint gains request counting
// and a latency histogram, and GET /metrics starts serving the registry's
// Prometheus exposition. Safe to call at any time, including while
// serving; nil reverts to unmetered (and an empty /metrics).
func (s *Server) SetMetrics(r *obs.Registry) {
	if r == nil {
		s.metrics.Store(nil)
		return
	}
	m := &httpMetrics{
		reg: r,
		requests: r.CounterVec("xvolt_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		latency: r.HDRVec("xvolt_http_request_seconds",
			"HTTP request latency, by route pattern.", obs.HDROpts{}, "route"),
	}
	for _, route := range routes {
		m.latency.With(route)
	}
	s.metrics.Store(m)
}

// SetTracer attaches (or, with nil, detaches) a request tracer: every
// routed request becomes a span carrying the route, method and status
// code, and GET /api/traces serves the tracer's retained spans. Safe to
// call while serving.
func (s *Server) SetTracer(t *trace.Tracer) {
	s.tracer.Store(t)
}

// SetAlerts attaches (or, with nil, detaches) an alert engine; GET
// /api/alerts serves its current rule states and transition log. The
// engine is evaluated by its owner (the fleet daemon's poll loop), not
// by the server. Safe to call while serving.
func (s *Server) SetAlerts(e *obs.AlertEngine) {
	s.alerts.Store(e)
}

// SetResults replaces the published campaign results.
func (s *Server) SetResults(results []*core.CampaignResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results = results
}

// snapshot returns a copy of the current results slice. The copy matters:
// handlers iterate the returned header outside the lock, and a concurrent
// SetResults must not be able to race those readers.
func (s *Server) snapshot() []*core.CampaignResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*core.CampaignResult(nil), s.results...)
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// route wraps one handler with the telemetry middleware. The route label
// is the mux pattern, not the request path, so cardinality stays fixed.
// The catch-all "/" pattern also matches every path outside the route
// table; those requests all collapse into the single "other" label so an
// attacker probing random paths cannot mint new label values. With a
// tracer attached each request also becomes a span — named by the same
// bounded label, carrying method and status code — whose context flows
// into the handler for further nesting.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		m := s.metrics.Load()
		tr := s.tracer.Load()
		if m == nil && tr == nil {
			h(w, r)
			return
		}
		label := pattern
		if pattern == "/" && r.URL.Path != "/" {
			label = otherRoute
		}
		ctx, rspan := tr.StartSpan(r.Context(), "http "+label)
		rspan.SetAttr("route", label)
		rspan.SetAttr("method", r.Method)
		var span obs.Span
		if m != nil {
			span = obs.StartSpan(m.latency.With(label))
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(ctx))
		span.End()
		rspan.SetAttr("code", strconv.Itoa(sw.code))
		rspan.End()
		if m != nil {
			m.requests.With(label, strconv.Itoa(sw.code)).Inc()
		}
	})
}

// Handler returns the HTTP routing for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "/healthz", s.handleHealth)
	s.route(mux, "/metrics", s.handleMetrics)
	s.route(mux, "/api/status", s.handleStatus)
	s.route(mux, "/api/results", s.handleResultsJSON)
	s.route(mux, "/api/results.csv", s.handleResultsCSV)
	s.route(mux, "/api/trace", s.handleTrace)
	s.route(mux, "/api/traces", s.handleTraces)
	s.route(mux, "/api/alerts", s.handleAlerts)
	s.route(mux, "/api/fleet", func(w http.ResponseWriter, r *http.Request) {
		if a := s.fleetOr404(w); a != nil {
			a.ServeBoards(w, r)
		}
	})
	s.route(mux, "/api/fleet/health", func(w http.ResponseWriter, r *http.Request) {
		if a := s.fleetOr404(w); a != nil {
			a.ServeHealth(w, r)
		}
	})
	s.route(mux, "/api/fleet/{board}/events", func(w http.ResponseWriter, r *http.Request) {
		if a := s.fleetOr404(w); a != nil {
			a.ServeEvents(w, r, r.PathValue("board"))
		}
	})
	s.route(mux, "/", s.handleIndex)
	return mux
}

// fleetOr404 resolves the attached fleet's API or fails the request.
func (s *Server) fleetOr404(w http.ResponseWriter) *FleetAPI {
	a := s.fleetAPI.Load()
	if a == nil {
		http.Error(w, "no fleet attached", http.StatusNotFound)
	}
	return a
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var reg *obs.Registry
	if m := s.metrics.Load(); m != nil {
		reg = m.reg
	}
	obs.Handler(reg).ServeHTTP(w, r)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if s.fw == nil {
		http.Error(w, "no study attached", http.StatusNotFound)
		return
	}
	m := s.fw.Machine()
	dto := apiv1.Status{
		Chip:          m.Chip().Name,
		Responsive:    m.Responsive(),
		BootCount:     m.BootCount(),
		Recoveries:    s.fw.Watchdog().Recoveries(),
		PMDVoltageMV:  int(m.PMDVoltage()),
		SoCVoltageMV:  int(m.SoCVoltage()),
		PowerWatts:    m.EstimatePower(),
		TemperatureC:  float64(m.Temperature()),
		CampaignsDone: len(s.snapshot()),
	}
	for pmd := 0; pmd < 4; pmd++ {
		dto.Frequencies[pmd] = int(m.PMDFrequency(pmd))
	}
	WriteJSON(w, dto)
}

func (s *Server) handleResultsJSON(w http.ResponseWriter, r *http.Request) {
	var out []apiv1.Campaign
	for _, c := range s.snapshot() {
		dto := apiv1.Campaign{
			Chip: c.Chip, Benchmark: c.Benchmark, Input: c.Input,
			Core: c.Core, FrequencyMHz: int(c.Frequency),
		}
		if v, ok := c.SafeVmin(); ok {
			dto.SafeVminMV = int(v)
		}
		if v, ok := c.CrashVoltage(); ok {
			dto.CrashVmaxMV = int(v)
		}
		for _, st := range c.Steps {
			dto.Steps = append(dto.Steps, apiv1.Step{
				VoltageMV: int(st.Voltage),
				Runs:      st.Tally.N,
				SDC:       st.Tally.SDC, CE: st.Tally.CE, UE: st.Tally.UE,
				AC: st.Tally.AC, SC: st.Tally.SC,
				Severity: st.Severity(s.weights),
				Region:   st.Region().String(),
			})
		}
		out = append(out, dto)
	}
	WriteJSON(w, out)
}

func (s *Server) handleResultsCSV(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	if err := csvutil.WriteCampaigns(w, s.snapshot(), s.weights); err != nil {
		// Headers are already out; nothing more we can do than log-like
		// trailing output — the client sees a truncated body.
		fmt.Fprintf(w, "\n# error: %v\n", err)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.fw == nil {
		http.Error(w, "no study attached", http.StatusNotFound)
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	log := s.fw.Trace()
	events := log.Events()
	if len(events) > n {
		events = events[len(events)-n:]
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, e := range events {
		fmt.Fprintln(w, e)
	}
}

// handleTraces serves the attached tracer's retained finished spans as
// JSON, oldest first. ?trace= narrows to one trace id; ?n= caps the
// span count (tail).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	t := s.tracer.Load()
	if t == nil {
		http.Error(w, "no tracer attached", http.StatusNotFound)
		return
	}
	var spans []trace.Span
	if q := r.URL.Query().Get("trace"); q != "" {
		id, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "bad trace", http.StatusBadRequest)
			return
		}
		spans = t.TraceSpans(id)
	} else {
		spans = t.Spans()
	}
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		if len(spans) > n {
			spans = spans[len(spans)-n:]
		}
	}
	kept, discarded := t.SampleStats()
	WriteJSON(w, struct {
		Spans     []trace.Span `json:"spans"`
		Evicted   uint64       `json:"evicted"`
		Sampled   uint64       `json:"sampled"`
		Discarded uint64       `json:"discarded"`
	}{spans, t.Evicted(), kept, discarded})
}

// handleAlerts serves the attached alert engine's rule states and recent
// state transitions.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	e := s.alerts.Load()
	if e == nil {
		http.Error(w, "no alerts attached", http.StatusNotFound)
		return
	}
	WriteJSON(w, alertsDoc(e))
}

// alertsDoc converts the engine's state into the api/v1 alerts document.
func alertsDoc(e *obs.AlertEngine) apiv1.Alerts {
	doc := apiv1.Alerts{Firing: len(e.Firing()), Evals: e.Evals()}
	for _, a := range e.Alerts() {
		doc.Alerts = append(doc.Alerts, apiv1.Alert{
			Rule:      a.Rule,
			Severity:  a.Severity,
			Kind:      a.Kind,
			State:     a.State.String(),
			Value:     nullable(a.Value),
			Threshold: a.Threshold,
			Since:     a.Since,
			LastEval:  a.LastEval,
			Help:      a.Help,
		})
	}
	for _, t := range e.Transitions() {
		doc.Transitions = append(doc.Transitions, apiv1.AlertTransition{
			Seq:   t.Seq,
			At:    t.At,
			Rule:  t.Rule,
			To:    t.To.String(),
			Value: nullable(t.Value),
		})
	}
	return doc
}

// nullable maps the engine's NaN-means-undefined convention onto the
// wire's null.
func nullable(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	chip := "—"
	if s.fw != nil {
		chip = s.fw.Machine().Chip().Name
	}
	fmt.Fprintf(w, `<!doctype html><title>xvolt</title>
<h1>xvolt characterization study</h1>
<p>chip %s — %d campaigns published</p>
<ul>
<li><a href="/api/status">status</a></li>
<li><a href="/api/results">results (JSON)</a></li>
<li><a href="/api/results.csv">results (CSV)</a></li>
<li><a href="/api/trace?n=50">trace tail</a></li>
<li><a href="/api/traces?n=50">spans (JSON)</a></li>
<li><a href="/api/alerts">alerts</a></li>
<li><a href="/metrics">metrics (Prometheus)</a></li>
</ul>`, chip, len(s.snapshot()))
	if s.fleetAPI.Load() != nil {
		fmt.Fprint(w, `
<h2>fleet</h2>
<ul>
<li><a href="/api/fleet">boards</a></li>
<li><a href="/api/fleet/health">health summary</a></li>
</ul>`)
	}
}

// WriteJSON writes v as a JSON response in the canonical api/v1
// encoding, under its Content-Length.
func WriteJSON(w http.ResponseWriter, v any) {
	body, err := apiv1.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSONBody(w, body)
}

// writeJSONBody writes an encoded JSON body. Every api/v1 body declares its
// length, so net/http sends it whole rather than chunked and a client
// reads it into one buffer of that size (apiv1.ReadBody).
func writeJSONBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}
