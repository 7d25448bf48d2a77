package core

import (
	"fmt"

	"xvolt/internal/units"
)

// Region classifies a voltage step per §3.1.
type Region int

const (
	// Safe — normal operation, no SDCs, errors or crashes in any run.
	Safe Region = iota
	// Unsafe — abnormal behavior (SDC, CE, UE, AC) but no system crash.
	Unsafe
	// Crash — at least one run led to a system crash.
	Crash
)

// String names the region.
func (r Region) String() string {
	switch r {
	case Safe:
		return "safe"
	case Unsafe:
		return "unsafe"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("region(%d)", int(r))
	}
}

// RegionOf classifies one voltage step's tally.
func RegionOf(t Tally) Region {
	switch {
	case t.AnySC():
		return Crash
	case t.AllClean():
		return Safe
	default:
		return Unsafe
	}
}

// StepResult is the aggregate of all runs at one voltage.
type StepResult struct {
	Voltage units.MilliVolts
	Tally   Tally
}

// Region classifies the step.
func (s StepResult) Region() Region { return RegionOf(s.Tally) }

// Severity evaluates the severity function on the step.
func (s StepResult) Severity(w Weights) float64 { return s.Tally.Severity(w) }

// CampaignResult is the outcome of characterizing one (benchmark, core)
// pair on one chip at one frequency: the voltage steps in descending order
// with their tallies.
type CampaignResult struct {
	Chip      string
	Benchmark string
	Input     string
	Core      int
	Frequency units.MegaHertz
	Steps     []StepResult
}

// BenchmarkID returns "name/input".
func (c *CampaignResult) BenchmarkID() string { return c.Benchmark + "/" + c.Input }

// SafeVmin returns the lowest voltage of the contiguous all-clean prefix of
// the sweep: the paper's safe Vmin. The boolean is false when even the
// first step misbehaved (no safe point observed in the swept range).
func (c *CampaignResult) SafeVmin() (units.MilliVolts, bool) {
	var last units.MilliVolts
	found := false
	for _, s := range c.Steps {
		if s.Region() != Safe {
			break
		}
		last = s.Voltage
		found = true
	}
	return last, found
}

// CrashVoltage returns the highest voltage whose step is in the crash
// region, or false if no crash was observed.
func (c *CampaignResult) CrashVoltage() (units.MilliVolts, bool) {
	for _, s := range c.Steps {
		if s.Region() == Crash {
			return s.Voltage, true
		}
	}
	return 0, false
}

// UnsafeSteps returns the steps classified unsafe, in sweep order.
func (c *CampaignResult) UnsafeSteps() []StepResult {
	var out []StepResult
	for _, s := range c.Steps {
		if s.Region() == Unsafe {
			out = append(out, s)
		}
	}
	return out
}

// AbnormalSteps returns every step with severity > 0 (unsafe and crash), in
// sweep order — the sample population for the §4.3.2/§4.3.3 regressions.
func (c *CampaignResult) AbnormalSteps() []StepResult {
	var out []StepResult
	for _, s := range c.Steps {
		if s.Region() != Safe {
			out = append(out, s)
		}
	}
	return out
}

// FirstAbnormalEffects reports which effect classes appear in the highest-
// voltage non-safe step — the "first observed effect as undervolting goes
// down" that drives the §4.4 mitigation choice. ok is false when the sweep
// never left the safe region.
func (c *CampaignResult) FirstAbnormalEffects() (Observation, bool) {
	for _, s := range c.Steps {
		if s.Region() == Safe {
			continue
		}
		t := s.Tally
		return Observation{
			SDC: t.SDC > 0, CE: t.CE > 0, UE: t.UE > 0,
			AC: t.AC > 0, SC: t.SC > 0,
		}, true
	}
	return Observation{}, false
}
