package obs

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// The exposition is deterministic, so it can be golden-tested verbatim:
// families sort by name, children by label values, quantile is always
// the last label.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("xvolt_campaigns_total", "Campaigns completed.").Add(3)
	runs := r.CounterVec("xvolt_runs_total", "Runs by outcome class.", "class")
	runs.With("SDC").Inc()
	runs.With("AC").Add(2)
	r.Gauge("xvolt_rail_millivolts", "Current rail voltage.").Set(915)
	// Two fast campaigns and one slow one. Every quantile lands in the
	// bucket of an observed extreme and clamps to it, so the golden holds
	// exact values rather than bucket midpoints.
	h := r.HDR("xvolt_campaign_seconds", "Campaign wall time.", HDROpts{})
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(10)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP xvolt_campaign_seconds Campaign wall time.
# TYPE xvolt_campaign_seconds summary
xvolt_campaign_seconds{quantile="0.5"} 0.25
xvolt_campaign_seconds{quantile="0.9"} 10
xvolt_campaign_seconds{quantile="0.99"} 10
xvolt_campaign_seconds{quantile="0.999"} 10
xvolt_campaign_seconds_sum 10.5
xvolt_campaign_seconds_count 3
# HELP xvolt_campaigns_total Campaigns completed.
# TYPE xvolt_campaigns_total counter
xvolt_campaigns_total 3
# HELP xvolt_rail_millivolts Current rail voltage.
# TYPE xvolt_rail_millivolts gauge
xvolt_rail_millivolts 915
# HELP xvolt_runs_total Runs by outcome class.
# TYPE xvolt_runs_total counter
xvolt_runs_total{class="AC"} 2
xvolt_runs_total{class="SDC"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePromLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	hv := r.HDRVec("req_seconds", "", HDROpts{}, "path")
	hv.With("/metrics").Observe(0.5)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`req_seconds{path="/metrics",quantile="0.5"} 0.5`,
		`req_seconds{path="/metrics",quantile="0.999"} 0.5`,
		`req_seconds_sum{path="/metrics"} 0.5`,
		`req_seconds_count{path="/metrics"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
	if strings.Contains(out, "# HELP") {
		t.Error("empty help string still rendered a HELP line")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "h", "v").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h").Add(7)
	r.GaugeVec("b", "h", "k").With("x").Set(-2)
	h := r.HDR("c_seconds", "h", HDROpts{})
	h.Observe(0.5)
	snap := r.Snapshot()
	for key, want := range map[string]float64{
		"a_total":                     7,
		`b{k="x"}`:                    -2,
		`c_seconds{quantile="0.5"}`:   0.5,
		`c_seconds{quantile="0.999"}`: 0.5,
		"c_seconds_sum":               0.5,
		"c_seconds_count":             1,
	} {
		if got := snap[key]; got != want {
			t.Errorf("snapshot[%q] = %v, want %v", key, got, want)
		}
	}
}

// WriteProm and Snapshot render from one sample walk, so they must agree
// line for line: every sample line WriteProm prints is the Snapshot
// entry for its key, and every Snapshot entry has its line.
func TestWritePromSnapshotParity(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h").Add(1234567) // renders as 1.234567e+06
	cv := r.CounterVec("cv_total", "h", "class", "core")
	cv.With("SDC", "0").Inc()
	cv.With("AC", "4").Add(2)
	r.Gauge("g", "h").Set(-2.5)
	r.GaugeVec("gv", "h", "state").With("a\"b").Set(3)
	h := r.HDR("h_seconds", "h", HDROpts{})
	for _, v := range []float64{1e-4, 0.25, 0.25, 3, 40} {
		h.Observe(v)
	}
	hv := r.HDRVec("hv_seconds", "h", HDROpts{}, "route")
	hv.With("/a").Observe(0.5)
	hv.With("/b") // no samples: NaN quantiles

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		key, text := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		want, ok := snap[key]
		if !ok {
			t.Errorf("line %q has no snapshot entry", line)
			continue
		}
		if seen[key] {
			t.Errorf("key %q printed twice", key)
		}
		seen[key] = true
		if v != want && !(math.IsNaN(v) && math.IsNaN(want)) {
			t.Errorf("line %q, snapshot %v", line, want)
		}
	}
	for key := range snap {
		if !seen[key] {
			t.Errorf("snapshot entry %q has no exposition line", key)
		}
	}
	// Three counter samples, two gauge samples, six per summary.
	if len(snap) != 3+2+3*6 {
		t.Errorf("snapshot has %d entries, want %d", len(snap), 3+2+3*6)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "h").Inc()
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "served_total 1") {
		t.Errorf("handler = %d %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	// Nil registry: valid empty exposition, not a crash.
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Errorf("nil handler = %d %q", rec.Code, rec.Body.String())
	}
}
