package core

import (
	"strings"
	"testing"

	"xvolt/internal/trace"
)

// The framework's event log must tell the campaign's whole story: start,
// steps, runs, crashes, recoveries, end — in order.
func TestFrameworkTrace(t *testing.T) {
	fw := tttFramework()
	log := trace.New(0)
	fw.SetTrace(log)
	if fw.Trace() != log {
		t.Fatal("trace not attached")
	}
	cfg := DefaultConfig(specs(t, "bwaves/ref"), []int{0})
	cfg.Runs = 4
	recs, err := fw.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if CountKind(log, trace.CampaignStart) != 1 || CountKind(log, trace.CampaignEnd) != 1 {
		t.Errorf("campaign markers = %d/%d",
			CountKind(log, trace.CampaignStart), CountKind(log, trace.CampaignEnd))
	}
	if got := CountKind(log, trace.RunDone); got != len(recs) {
		t.Errorf("run events = %d, records = %d", got, len(recs))
	}
	if CountKind(log, trace.SystemCrash) == 0 {
		t.Error("no crash events despite sweeping into the crash region")
	}
	if CountKind(log, trace.Recovery) == 0 {
		t.Error("no recovery events despite crashes")
	}
	steps := CountKind(log, trace.StepStart)
	if steps*cfg.Runs != len(recs) {
		t.Errorf("step events %d × runs %d != records %d", steps, cfg.Runs, len(recs))
	}
	// Ordering: the first event is the campaign start, the last its end.
	events := log.Events()
	if events[0].Kind != trace.CampaignStart {
		t.Errorf("first event = %v", events[0])
	}
	if events[len(events)-1].Kind != trace.CampaignEnd {
		t.Errorf("last event = %v", events[len(events)-1])
	}
	// The events carry the SDC classifications.
	sdc := false
	for _, e := range events {
		sdc = sdc || strings.Contains(e.String(), "SDC")
	}
	if !sdc {
		t.Error("trace contains no SDC classification")
	}
}

// A framework without a trace works identically (nil log is inert).
func TestFrameworkWithoutTrace(t *testing.T) {
	fw := tttFramework()
	if fw.Trace() != nil {
		t.Fatal("unexpected default trace")
	}
	cfg := DefaultConfig(specs(t, "mcf/ref"), []int{4})
	cfg.Runs = 2
	if _, err := fw.Execute(cfg); err != nil {
		t.Fatal(err)
	}
}
