package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/obs"
	"xvolt/internal/trace"
)

func TestTracesEndpoint(t *testing.T) {
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Detached: 404, not a crash.
	if code, _ := get(t, ts, "/api/traces"); code != 404 {
		t.Fatalf("no tracer = %d, want 404", code)
	}

	tr := trace.NewTracer(0, 1)
	tr.SetClock(func() time.Duration { return 0 })
	s.SetTracer(tr)

	// Requests themselves become spans once the tracer is attached.
	get(t, ts, "/healthz")
	get(t, ts, "/api/nope")

	code, body := get(t, ts, "/api/traces")
	if code != 200 {
		t.Fatalf("/api/traces = %d", code)
	}
	var dto struct {
		Spans   []trace.Span `json:"spans"`
		Sampled uint64       `json:"sampled"`
	}
	if err := json.Unmarshal([]byte(body), &dto); err != nil {
		t.Fatal(err)
	}
	if len(dto.Spans) < 2 || dto.Sampled < 2 {
		t.Fatalf("spans = %d sampled = %d", len(dto.Spans), dto.Sampled)
	}
	byName := map[string][]trace.Span{}
	for _, sp := range dto.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if len(byName["http /healthz"]) != 1 {
		t.Fatalf("healthz span missing: %+v", byName)
	}
	attrs := map[string]string{}
	for _, a := range byName["http /healthz"][0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["route"] != "/healthz" || attrs["method"] != "GET" || attrs["code"] != "200" {
		t.Errorf("healthz span attrs = %v", attrs)
	}
	// Unknown paths collapse into the bounded "other" span name.
	if len(byName["http other"]) != 1 {
		t.Errorf("unknown path did not collapse to other: %+v", byName)
	}

	// ?trace= narrows to one tree, ?n= tails, bad values 400.
	id := dto.Spans[0].Trace
	_, body = get(t, ts, "/api/traces?trace="+jsonNum(id))
	var one struct {
		Spans []trace.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	for _, sp := range one.Spans {
		if sp.Trace != id {
			t.Errorf("trace filter leaked span of trace %d", sp.Trace)
		}
	}
	_, body = get(t, ts, "/api/traces?n=1")
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Spans) != 1 {
		t.Errorf("n=1 returned %d spans", len(one.Spans))
	}
	if code, _ := get(t, ts, "/api/traces?n=0"); code != 400 {
		t.Errorf("n=0 = %d", code)
	}
	if code, _ := get(t, ts, "/api/traces?trace=x"); code != 400 {
		t.Errorf("trace=x = %d", code)
	}
}

func jsonNum(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestAlertsEndpoint(t *testing.T) {
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts, "/api/alerts"); code != 404 {
		t.Fatalf("no engine = %d, want 404", code)
	}

	reg := obs.NewRegistry()
	g := reg.Gauge("v", "h")
	reg.Counter("c_total", "h")
	engine := obs.NewAlertEngine(reg, nil)
	if err := engine.Add(obs.Rule{
		Name: "hot", Metric: "v", Op: obs.CmpGE, Threshold: 1, Severity: "critical",
	}, obs.Rule{
		// A rate rule's first evaluation only takes its baseline, so it
		// has no value yet.
		Name: "surge", Metric: "c_total", Kind: obs.RuleRate, Op: obs.CmpGE, Threshold: 1,
	}); err != nil {
		t.Fatal(err)
	}
	s.SetAlerts(engine)
	g.Set(2)
	engine.Eval()

	code, body := get(t, ts, "/api/alerts")
	if code != 200 {
		t.Fatalf("/api/alerts = %d", code)
	}
	var doc apiv1.Alerts
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Alerts) != 2 || doc.Firing != 1 || doc.Evals != 1 || len(doc.Transitions) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	if !strings.Contains(body, `"state": "firing"`) {
		t.Errorf("state not rendered by name:\n%s", body)
	}
	hot, surge := doc.Alerts[0], doc.Alerts[1]
	if hot.Rule != "hot" || hot.Severity != "critical" || hot.Value == nil || *hot.Value != 2 {
		t.Errorf("alert = %+v", hot)
	}
	// The engine's NaN (no baseline yet) goes out as null, not as a
	// marshal error.
	if surge.Rule != "surge" || surge.Value != nil || surge.State != "inactive" {
		t.Errorf("no-baseline rate alert = %+v", surge)
	}
	if !strings.Contains(body, `"value": null`) {
		t.Errorf("NaN value not rendered as null:\n%s", body)
	}
}

// The engine reports "no value" as NaN: a rate rule before its baseline,
// and a ratio rule that resolves because its denominator fell to zero.
// Both must reach /api/alerts as null, on the alert and on the recorded
// transition, and decode back as no value.
func TestAlertNaNValueMarshalsAsNull(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total", "h")
	bad := reg.Gauge("bad", "h")
	all := reg.Gauge("all", "h")
	engine := obs.NewAlertEngine(reg, nil)
	if err := engine.Add(obs.Rule{
		Name: "r", Metric: "c_total", Kind: obs.RuleRate, Op: obs.CmpGE, Threshold: 1,
	}, obs.Rule{
		Name: "ratio", Metric: "bad", Denom: "all", Op: obs.CmpGE, Threshold: 0.25,
	}); err != nil {
		t.Fatal(err)
	}
	bad.Set(4)
	all.Set(16)
	engine.Eval() // ratio fires at 4/16
	all.Set(0)
	engine.Eval() // ratio resolves with no value

	s := New(nil)
	s.SetAlerts(engine)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/api/alerts")
	if code != 200 {
		t.Fatalf("/api/alerts = %d", code)
	}
	var doc apiv1.Alerts
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decode with null values: %v\n%s", err, body)
	}
	if len(doc.Alerts) != 2 {
		t.Fatalf("alerts = %+v", doc.Alerts)
	}
	for _, a := range doc.Alerts {
		if a.Value != nil || a.State != "inactive" {
			t.Errorf("alert with NaN value = %+v", a)
		}
	}
	if n := len(doc.Transitions); n != 2 {
		t.Fatalf("transitions = %+v, want fire+resolve", doc.Transitions)
	}
	fire, resolve := doc.Transitions[0], doc.Transitions[1]
	if fire.To != "firing" || fire.Value == nil || *fire.Value != 0.25 {
		t.Errorf("fire transition = %+v", fire)
	}
	if resolve.To != "inactive" || resolve.Value != nil {
		t.Errorf("resolve transition with NaN value = %+v", resolve)
	}
	if got := strings.Count(body, `"value": null`); got != 3 {
		t.Errorf(`"value": null appears %d times, want 3:\n%s`, got, body)
	}
}

func TestDebugHandler(t *testing.T) {
	reg := obs.NewRegistry()
	rs := obs.NewRuntimeStats(reg)
	ts := httptest.NewServer(DebugHandler(reg, rs))
	defer ts.Close()

	if code, body := get(t, ts, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
	// The scrape samples the runtime gauges on demand.
	code, body := get(t, ts, "/metrics")
	if code != 200 || !strings.Contains(body, "xvolt_go_goroutines") {
		t.Errorf("metrics = %d, missing runtime gauges", code)
	}
	if code, body := get(t, ts, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index = %d", code)
	}
	if code, _ := get(t, ts, "/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof cmdline = %d", code)
	}
	if code, _ := get(t, ts, "/"); code != 200 {
		t.Errorf("index = %d", code)
	}
	if code, _ := get(t, ts, "/nope"); code != 404 {
		t.Errorf("unknown = %d", code)
	}
}

// The two new endpoints are first-class routes: counted under their own
// pattern label, never minting unbounded ones.
func TestObservabilityRoutesMetered(t *testing.T) {
	s := New(nil)
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	s.SetTracer(trace.NewTracer(0, 1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/api/traces")
	get(t, ts, "/api/alerts")
	_, body := get(t, ts, "/metrics")
	for _, want := range []string{
		`xvolt_http_requests_total{route="/api/traces",code="200"} 1`,
		`xvolt_http_requests_total{route="/api/alerts",code="404"} 1`,
		`xvolt_http_request_seconds_count{route="/api/traces"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, grepLines(body, "route"))
		}
	}
}
