package obs

import (
	"math"
	"testing"
	"time"
)

// engineAt builds an engine on a settable fake clock.
func engineAt(reg *Registry) (*AlertEngine, *time.Duration) {
	at := new(time.Duration)
	return NewAlertEngine(reg, func() time.Duration { return *at }), at
}

func alertByName(t *testing.T, alerts []Alert, name string) Alert {
	t.Helper()
	for _, a := range alerts {
		if a.Rule == name {
			return a
		}
	}
	t.Fatalf("no alert %q in %+v", name, alerts)
	return Alert{}
}

func TestAlertThresholdImmediate(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("load", "h")
	e, at := engineAt(reg)
	if err := e.Add(Rule{Name: "hot", Metric: "load", Op: CmpGE, Threshold: 10}); err != nil {
		t.Fatal(err)
	}

	g.Set(5)
	if a := alertByName(t, e.Eval(), "hot"); a.State != AlertInactive {
		t.Errorf("below threshold: %v", a.State)
	}
	*at = time.Second
	g.Set(10)
	if a := alertByName(t, e.Eval(), "hot"); a.State != AlertFiring || a.Value != 10 {
		t.Errorf("For=0 at threshold: %+v", a)
	}
	*at = 2 * time.Second
	g.Set(3)
	if a := alertByName(t, e.Eval(), "hot"); a.State != AlertInactive {
		t.Errorf("after drop: %v", a.State)
	}

	trs := e.Transitions()
	if len(trs) != 2 || trs[0].To != AlertFiring || trs[1].To != AlertInactive {
		t.Fatalf("transitions = %+v", trs)
	}
	if trs[0].At != time.Second || trs[1].At != 2*time.Second {
		t.Errorf("transition clocks = %v, %v", trs[0].At, trs[1].At)
	}
}

func TestAlertForHoldout(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("ratio", "h")
	e, at := engineAt(reg)
	if err := e.Add(Rule{Name: "r", Metric: "ratio", Op: CmpGE, Threshold: 1, For: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}

	g.Set(1)
	if a := alertByName(t, e.Eval(), "r"); a.State != AlertPending {
		t.Errorf("first true eval: %v, want pending", a.State)
	}
	*at = time.Second
	if a := alertByName(t, e.Eval(), "r"); a.State != AlertPending {
		t.Errorf("1s held: %v, want still pending", a.State)
	}
	*at = 2 * time.Second
	if a := alertByName(t, e.Eval(), "r"); a.State != AlertFiring {
		t.Errorf("2s held: %v, want firing", a.State)
	}

	// A false evaluation resets the pending clock entirely.
	*at = 3 * time.Second
	g.Set(0)
	e.Eval()
	*at = 4 * time.Second
	g.Set(1)
	if a := alertByName(t, e.Eval(), "r"); a.State != AlertPending {
		t.Errorf("after reset: %v, want pending again", a.State)
	}
	// A pending→inactive round trip records no transition.
	if trs := e.Transitions(); len(trs) != 2 {
		t.Errorf("transitions = %+v, want fire+resolve only", trs)
	}
}

func TestAlertRatioDenominator(t *testing.T) {
	reg := NewRegistry()
	bad := reg.Gauge("bad", "h")
	all := reg.Gauge("all", "h")
	e, _ := engineAt(reg)
	if err := e.Add(Rule{Name: "ratio", Metric: "bad", Denom: "all", Op: CmpGE, Threshold: 0.25}); err != nil {
		t.Fatal(err)
	}

	// Zero denominator suppresses the rule rather than dividing by zero.
	bad.Set(4)
	if a := alertByName(t, e.Eval(), "ratio"); a.State != AlertInactive || !math.IsNaN(a.Value) {
		t.Errorf("zero denom: %+v", a)
	}
	all.Set(16)
	if a := alertByName(t, e.Eval(), "ratio"); a.State != AlertFiring || a.Value != 0.25 {
		t.Errorf("4/16: %+v", a)
	}
	bad.Set(3)
	if a := alertByName(t, e.Eval(), "ratio"); a.State != AlertInactive {
		t.Errorf("3/16: %v", a.State)
	}
}

func TestAlertRate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("events_total", "h")
	e, at := engineAt(reg)
	if err := e.Add(Rule{Name: "surge", Metric: "events_total", Kind: RuleRate, Op: CmpGE, Threshold: 2}); err != nil {
		t.Fatal(err)
	}

	// First sight is the baseline — no rate yet (NaN), no fire.
	c.Add(100)
	if a := alertByName(t, e.Eval(), "surge"); a.State != AlertInactive || !math.IsNaN(a.Value) {
		t.Errorf("baseline eval: %+v", a)
	}
	// +10 over 2s = 5/s ≥ 2.
	*at = 2 * time.Second
	c.Add(10)
	if a := alertByName(t, e.Eval(), "surge"); a.State != AlertFiring || a.Value != 5 {
		t.Errorf("5/s: %+v", a)
	}
	// +1 over 1s = 1/s < 2 → resolved.
	*at = 3 * time.Second
	c.Add(1)
	if a := alertByName(t, e.Eval(), "surge"); a.State != AlertInactive || a.Value != 1 {
		t.Errorf("1/s: %+v", a)
	}
	// Same-clock re-eval must not divide by zero or move the baseline.
	if a := alertByName(t, e.Eval(), "surge"); a.State != AlertInactive {
		t.Errorf("same-clock eval: %+v", a)
	}
}

func TestAlertAbsence(t *testing.T) {
	reg := NewRegistry()
	e, at := engineAt(reg)
	if err := e.Add(Rule{Name: "gone", Metric: "polls_total", Kind: RuleAbsence, For: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}

	if a := alertByName(t, e.Eval(), "gone"); a.State != AlertPending {
		t.Errorf("absent at t=0: %v, want pending", a.State)
	}
	*at = 5 * time.Second
	if a := alertByName(t, e.Eval(), "gone"); a.State != AlertFiring {
		t.Errorf("absent 5s: %v, want firing", a.State)
	}
	// The metric appearing resolves it.
	reg.Counter("polls_total", "h").Inc()
	*at = 6 * time.Second
	if a := alertByName(t, e.Eval(), "gone"); a.State != AlertInactive {
		t.Errorf("present again: %v", a.State)
	}
}

func TestAlertEngineMetaTelemetry(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("v", "h")
	e, _ := engineAt(reg)
	if err := e.Add(Rule{Name: "m", Metric: "v", Op: CmpGE, Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	g.Set(1)
	e.Eval()
	snap := reg.Snapshot()
	if snap[`xvolt_alert_firing{rule="m"}`] != 1 {
		t.Errorf("firing gauge: %v", snap[`xvolt_alert_firing{rule="m"}`])
	}
	if snap[`xvolt_alert_transitions_total{rule="m",to="firing"}`] != 1 {
		t.Error("transition counter missing")
	}
	if len(e.Firing()) != 1 || e.Evals() != 1 {
		t.Errorf("Firing/Evals = %d/%d", len(e.Firing()), e.Evals())
	}
}

func TestAlertAddValidation(t *testing.T) {
	e, _ := engineAt(NewRegistry())
	for _, r := range []Rule{
		{Name: "", Metric: "m"},
		{Name: "n", Metric: ""},
		{Name: "d", Metric: "m", Denom: "x", Kind: RuleRate},
		{Name: "f", Metric: "m", For: -time.Second},
	} {
		if err := e.Add(r); err == nil {
			t.Errorf("rule %+v accepted", r)
		}
	}
	if err := e.Add(Rule{Name: "ok", Metric: "m"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(Rule{Name: "ok", Metric: "m"}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestAlertEngineNilSafe(t *testing.T) {
	var e *AlertEngine
	if err := e.Add(Rule{Name: "x", Metric: "m"}); err != nil {
		t.Error(err)
	}
	if e.Eval() != nil || e.Alerts() != nil || e.Firing() != nil ||
		e.Transitions() != nil || e.Evals() != 0 {
		t.Error("nil engine not inert")
	}
}

// Determinism: two engines fed the same metric history on the same clock
// produce identical alert and transition streams.
func TestAlertDeterminism(t *testing.T) {
	run := func() []AlertTransition {
		reg := NewRegistry()
		g := reg.Gauge("v", "h")
		e, at := engineAt(reg)
		if err := e.Add(
			Rule{Name: "a", Metric: "v", Op: CmpGE, Threshold: 5, For: 2 * time.Second},
			Rule{Name: "b", Metric: "v", Kind: RuleRate, Op: CmpGE, Threshold: 1},
		); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			*at = time.Duration(i) * time.Second
			g.Set(float64(i % 8))
			e.Eval()
		}
		return e.Transitions()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("scenario produced no transitions")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("transition %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
