package core

import (
	"strings"
	"testing"

	"xvolt/internal/units"
)

func TestRegionString(t *testing.T) {
	if Safe.String() != "safe" || Unsafe.String() != "unsafe" || Crash.String() != "crash" {
		t.Error("region names wrong")
	}
	if !strings.HasPrefix(Region(9).String(), "region(") {
		t.Error("unknown region name wrong")
	}
}

func TestRegionOf(t *testing.T) {
	if got := RegionOf(Tally{N: 10}); got != Safe {
		t.Errorf("clean tally region = %v", got)
	}
	if got := RegionOf(Tally{N: 10, SDC: 1}); got != Unsafe {
		t.Errorf("SDC tally region = %v", got)
	}
	if got := RegionOf(Tally{N: 10, CE: 3, UE: 1, AC: 2}); got != Unsafe {
		t.Errorf("CE/UE/AC tally region = %v", got)
	}
	// "at least one characterization run led to a system crash" → crash.
	if got := RegionOf(Tally{N: 10, SDC: 5, SC: 1}); got != Crash {
		t.Errorf("1-crash tally region = %v", got)
	}
}

// synthetic campaign: clean at 980–910, unsafe 905–890, crash 885 down.
func syntheticCampaign() *CampaignResult {
	c := &CampaignResult{
		Chip: "TTT", Benchmark: "bwaves", Input: "ref",
		Core: 0, Frequency: 2400,
	}
	for v := units.MilliVolts(980); v >= 875; v -= 5 {
		var tl Tally
		switch {
		case v >= 910:
			tl = Tally{N: 10}
		case v >= 890:
			tl = Tally{N: 10, SDC: int(910-v) / 5, CE: 1}
		default:
			tl = Tally{N: 10, SC: 10}
		}
		c.Steps = append(c.Steps, StepResult{Voltage: v, Tally: tl})
	}
	return c
}

func TestSafeVmin(t *testing.T) {
	c := syntheticCampaign()
	v, ok := c.SafeVmin()
	if !ok || v != 910 {
		t.Errorf("SafeVmin = %v, %v; want 910mV", v, ok)
	}
}

func TestSafeVminNoneObserved(t *testing.T) {
	c := &CampaignResult{Steps: []StepResult{
		{Voltage: 900, Tally: Tally{N: 10, SDC: 1}},
	}}
	if _, ok := c.SafeVmin(); ok {
		t.Error("SafeVmin found despite no clean step")
	}
}

// The safe Vmin is the bottom of the *contiguous* clean prefix: a clean
// step below an unsafe one must not extend the safe region.
func TestSafeVminStopsAtFirstAbnormal(t *testing.T) {
	c := &CampaignResult{Steps: []StepResult{
		{Voltage: 920, Tally: Tally{N: 10}},
		{Voltage: 915, Tally: Tally{N: 10, SDC: 1}},
		{Voltage: 910, Tally: Tally{N: 10}}, // lucky clean step below
	}}
	v, ok := c.SafeVmin()
	if !ok || v != 920 {
		t.Errorf("SafeVmin = %v, want 920 (clean prefix only)", v)
	}
}

func TestCrashVoltage(t *testing.T) {
	c := syntheticCampaign()
	v, ok := c.CrashVoltage()
	if !ok || v != 885 {
		t.Errorf("CrashVoltage = %v, %v; want 885mV", v, ok)
	}
	noCrash := &CampaignResult{Steps: []StepResult{
		{Voltage: 900, Tally: Tally{N: 10}},
	}}
	if _, ok := noCrash.CrashVoltage(); ok {
		t.Error("crash voltage found without crashes")
	}
}

func TestSeverityAt(t *testing.T) {
	c := syntheticCampaign()
	if got := c.SeverityAt(980, PaperWeights); got != 0 {
		t.Errorf("severity at 980 = %v", got)
	}
	// 905 mV: 1 SDC + 1 CE of 10 runs → 0.4 + 0.1 = 0.5.
	if got := c.SeverityAt(905, PaperWeights); got != 0.5 {
		t.Errorf("severity at 905 = %v, want 0.5", got)
	}
	if got := c.SeverityAt(875, PaperWeights); got != 16 {
		t.Errorf("severity at crash = %v, want 16", got)
	}
	if got := c.SeverityAt(700, PaperWeights); got != 0 {
		t.Errorf("severity at unswept = %v", got)
	}
}

func TestUnsafeAndAbnormalSteps(t *testing.T) {
	c := syntheticCampaign()
	unsafe := c.UnsafeSteps()
	if len(unsafe) != 4 { // 905, 900, 895, 890
		t.Errorf("unsafe steps = %d, want 4", len(unsafe))
	}
	abnormal := c.AbnormalSteps()
	if len(abnormal) != 7 { // + 885, 880, 875
		t.Errorf("abnormal steps = %d, want 7", len(abnormal))
	}
	for _, s := range unsafe {
		if s.Region() != Unsafe {
			t.Errorf("unsafe step %v region %v", s.Voltage, s.Region())
		}
	}
}

func TestFirstAbnormalEffects(t *testing.T) {
	c := syntheticCampaign()
	obs, ok := c.FirstAbnormalEffects()
	if !ok {
		t.Fatal("no abnormal effects found")
	}
	if !obs.SDC || !obs.CE || obs.SC || obs.AC || obs.UE {
		t.Errorf("first abnormal = %v, want SDC+CE", obs)
	}
	clean := &CampaignResult{Steps: []StepResult{{Voltage: 980, Tally: Tally{N: 10}}}}
	if _, ok := clean.FirstAbnormalEffects(); ok {
		t.Error("abnormal effects on all-clean campaign")
	}
}

func TestBenchmarkID(t *testing.T) {
	c := syntheticCampaign()
	if c.BenchmarkID() != "bwaves/ref" {
		t.Errorf("BenchmarkID = %q", c.BenchmarkID())
	}
}

func TestValidate(t *testing.T) {
	c := syntheticCampaign()
	if err := c.Validate(); err != nil {
		t.Errorf("valid campaign rejected: %v", err)
	}
	bad := &CampaignResult{Steps: []StepResult{
		{Voltage: 900}, {Voltage: 905},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("ascending steps accepted")
	}
	offGrid := &CampaignResult{Steps: []StepResult{{Voltage: 903}}}
	if err := offGrid.Validate(); err == nil {
		t.Error("off-grid step accepted")
	}
}
