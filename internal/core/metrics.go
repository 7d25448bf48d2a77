package core

import (
	"xvolt/internal/obs"
)

// fwMetrics are the framework's exported instruments. All fields are nil
// (inert) until SetMetrics attaches a registry, so the hot path pays one
// pointer compare per event when unmetered.
type fwMetrics struct {
	runs            *obs.CounterVec // by Table 3 outcome class
	steps           *obs.Counter
	campaigns       *obs.Counter
	campaignSeconds *obs.HDR
	railMV          *obs.Gauge
}

// SetMetrics registers the framework's telemetry on r — runs executed by
// outcome class, voltage steps, campaigns and their wall time — and wires
// the same registry into the embedded watchdog and the attached trace
// log, so one call meters the whole board. Nil r detaches nothing but
// registers nothing either; call before Execute.
func (f *Framework) SetMetrics(r *obs.Registry) {
	m := fwMetrics{
		runs: r.CounterVec("xvolt_runs_total",
			"Characterization runs by Table 3 outcome class (a run manifesting several effects counts once per class).",
			"class"),
		steps: r.Counter("xvolt_voltage_steps_total",
			"Voltage steps executed across all campaigns."),
		campaigns: r.Counter("xvolt_campaigns_total",
			"(benchmark, core) campaigns completed."),
		campaignSeconds: r.HDR("xvolt_campaign_seconds",
			"Campaign wall time per (benchmark, core) sweep.", obs.HDROpts{}),
		railMV: r.Gauge("xvolt_rail_millivolts",
			"PMD rail voltage most recently applied by the framework."),
	}
	if r != nil {
		// Pre-seed every outcome class so /metrics shows the full label
		// space (at zero) from the first scrape, not only after the first
		// SDC appears.
		m.runs.With(NO.String())
		for _, e := range Effects {
			m.runs.With(e.String())
		}
	}
	f.metrics = m
	f.reg = r
	f.dog.SetMetrics(r)
	f.log.SetMetrics(r)
}

// countRun folds one classified run into the runs-by-class family.
func (m *fwMetrics) countRun(o Observation) {
	if m.runs == nil {
		return
	}
	for _, e := range o.EffectList() {
		m.runs.With(e.String()).Inc()
	}
}
