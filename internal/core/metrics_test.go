package core

import (
	"strings"
	"testing"

	"xvolt/internal/obs"
	"xvolt/internal/trace"
)

// A metered campaign must account for every run, step and campaign it
// executed, and the registry must expose the acceptance-critical names.
func TestFrameworkMetrics(t *testing.T) {
	fw := tttFramework()
	reg := obs.NewRegistry()
	fw.SetMetrics(reg)
	fw.SetTrace(trace.New(0))

	cfg := DefaultConfig(specs(t, "mcf/ref"), []int{4})
	cfg.Runs = 3
	recs, err := fw.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	// Every run lands in at least one class; multi-effect runs count once
	// per class, so the class sum is >= the record count.
	var classSum float64
	for _, class := range []string{"NO", "SDC", "CE", "UE", "AC", "SC"} {
		v, ok := snap[`xvolt_runs_total{class="`+class+`"}`]
		if !ok {
			t.Errorf("class %s not pre-seeded in xvolt_runs_total", class)
		}
		classSum += v
	}
	if classSum < float64(len(recs)) {
		t.Errorf("run class sum = %v < %d records", classSum, len(recs))
	}
	if got := snap[`xvolt_runs_total{class="SC"}`]; got == 0 {
		t.Error("sweep reached the crash region but SC class is zero")
	}
	if got := snap["xvolt_campaigns_total"]; got != 1 {
		t.Errorf("campaigns = %v, want 1", got)
	}
	if got := snap["xvolt_campaign_seconds_count"]; got != 1 {
		t.Errorf("campaign_seconds count = %v, want 1", got)
	}
	steps := snap["xvolt_voltage_steps_total"]
	if int(steps)*cfg.Runs != len(recs) {
		t.Errorf("steps %v × runs %d != %d records", steps, cfg.Runs, len(recs))
	}
	// Recoveries flow through the embedded watchdog's registration.
	if got := snap["xvolt_watchdog_recoveries_total"]; got != float64(fw.Watchdog().Recoveries()) {
		t.Errorf("recoveries metric = %v, watchdog says %d", got, fw.Watchdog().Recoveries())
	}
	if got := snap["xvolt_watchdog_recovery_seconds_count"]; got != float64(fw.Watchdog().Recoveries()) {
		t.Errorf("recovery latency count = %v, want %d", got, fw.Watchdog().Recoveries())
	}
	// The trace log joined the registry through SetTrace-after-SetMetrics.
	if got := snap[`xvolt_trace_events_total{kind="run"}`]; got != float64(len(recs)) {
		t.Errorf("trace run events = %v, want %d", got, len(recs))
	}
	// Runs end with the rail restored to nominal for safe data collection.
	if got := snap["xvolt_rail_millivolts"]; got != 980 {
		t.Errorf("rail gauge = %v, want 980", got)
	}

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"xvolt_runs_total{class=",
		"xvolt_watchdog_recoveries_total",
		"# TYPE xvolt_campaign_seconds summary",
		"xvolt_campaign_seconds_count 1",
		"# TYPE xvolt_watchdog_recovery_seconds summary",
	} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("exposition missing %q", name)
		}
	}
}

// An unmetered framework runs exactly as before: nil instruments are
// inert, not nil-pointer panics.
func TestFrameworkWithoutMetrics(t *testing.T) {
	fw := tttFramework()
	cfg := DefaultConfig(specs(t, "mcf/ref"), []int{0})
	cfg.Runs = 2
	cfg.StopVoltage = 940
	cfg.StopAfterCrashSteps = 0
	if _, err := fw.Execute(cfg); err != nil {
		t.Fatal(err)
	}
}
