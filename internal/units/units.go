// Package units defines the physical quantities used throughout xvolt:
// supply voltages in millivolts, clock frequencies in megahertz and
// temperatures in degrees Celsius.
//
// The X-Gene 2 PMD voltage rail regulates in 5 mV steps starting from a
// 980 mV nominal value, and PMD clocks step in 300 MHz increments between
// 300 MHz and 2400 MHz; the helpers here encode that grid so the rest of
// the code cannot request an unrepresentable operating point.
package units

import "fmt"

// MilliVolts is a supply-voltage level in millivolts.
type MilliVolts int

// MegaHertz is a clock frequency in MHz.
type MegaHertz int

// Celsius is a temperature in degrees Celsius.
type Celsius float64

// Voltage-rail constants of the X-Gene 2 (paper §2.1).
const (
	// NominalPMD is the nominal voltage of the shared PMD rail.
	NominalPMD MilliVolts = 980
	// NominalSoC is the nominal voltage of the PCP/SoC rail.
	NominalSoC MilliVolts = 950
	// VoltageStep is the regulation granularity of both rails.
	VoltageStep MilliVolts = 5
)

// Frequency constants of the X-Gene 2 PMD clock tree (paper §2.1, §3.2).
const (
	MinFrequency  MegaHertz = 300
	MaxFrequency  MegaHertz = 2400
	FrequencyStep MegaHertz = 300
	// HalfFrequency is the clock-division point: ratios equal to 1/2 are
	// implemented by clock division and define the second margin regime.
	HalfFrequency MegaHertz = 1200
)

// String renders the voltage as e.g. "915mV".
func (v MilliVolts) String() string { return fmt.Sprintf("%dmV", int(v)) }

// String renders the frequency as e.g. "2400MHz".
func (f MegaHertz) String() string { return fmt.Sprintf("%dMHz", int(f)) }

// String renders the temperature as e.g. "43.0C".
func (t Celsius) String() string { return fmt.Sprintf("%.1fC", float64(t)) }

// Volts converts to volts as a float (for power arithmetic).
func (v MilliVolts) Volts() float64 { return float64(v) / 1000 }

// GHz converts to gigahertz as a float.
func (f MegaHertz) GHz() float64 { return float64(f) / 1000 }

// OnGrid reports whether v lies on the 5 mV regulation grid.
func (v MilliVolts) OnGrid() bool { return v%VoltageStep == 0 }

// SnapDown returns the highest grid voltage that does not exceed v.
func (v MilliVolts) SnapDown() MilliVolts {
	if v >= 0 {
		return v - v%VoltageStep
	}
	r := v % VoltageStep
	if r == 0 {
		return v
	}
	return v - r - VoltageStep
}

// SnapUp returns the lowest grid voltage that is not below v.
func (v MilliVolts) SnapUp() MilliVolts {
	d := v.SnapDown()
	if d == v {
		return v
	}
	return d + VoltageStep
}

// GuardbandFraction is the relative voltage margin between nominal and v,
// e.g. 980→880 mV gives 0.102.
func (v MilliVolts) GuardbandFraction() float64 {
	return float64(NominalPMD-v) / float64(NominalPMD)
}

// RelativeSquared returns (v/nominal)^2 — the dynamic-power scaling factor
// used by the paper's energy accounting.
func (v MilliVolts) RelativeSquared() float64 {
	r := float64(v) / float64(NominalPMD)
	return r * r
}

// ValidFrequency reports whether f is an achievable PMD frequency:
// 300–2400 MHz on the 300 MHz grid.
func ValidFrequency(f MegaHertz) bool {
	return f >= MinFrequency && f <= MaxFrequency && f%FrequencyStep == 0
}

// MarginRegime identifies which of the two timing-margin regimes a PMD
// frequency belongs to. Clock ratios above 1/2 are produced by clock
// skipping and behave like full speed; the 1/2 ratio is produced by clock
// division and behaves like 1.2 GHz (paper §3.2). Frequencies below
// 1.2 GHz behave like 1.2 GHz as well.
type MarginRegime int

const (
	// RegimeFull covers frequencies above 1200 MHz (clock skipping).
	RegimeFull MarginRegime = iota
	// RegimeHalf covers 1200 MHz and below (clock division).
	RegimeHalf
)

// String names the regime.
func (r MarginRegime) String() string {
	if r == RegimeHalf {
		return "half-speed"
	}
	return "full-speed"
}

// RegimeOf returns the margin regime of frequency f.
func RegimeOf(f MegaHertz) MarginRegime {
	if f > HalfFrequency {
		return RegimeFull
	}
	return RegimeHalf
}

// ClampVoltage bounds v into [lo, hi].
func ClampVoltage(v, lo, hi MilliVolts) MilliVolts {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
