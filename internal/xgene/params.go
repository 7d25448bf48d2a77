// Package xgene models the AppliedMicro X-Gene 2 micro-server used in the
// paper: eight ARMv8 cores in four PMDs sharing one scalable voltage rail,
// per-PMD frequency control, a PCP/SoC power domain held at nominal, EDAC
// error reporting, the serial heartbeat, and physical power/reset lines
// for an external watchdog.
//
// The machine is the only surface the characterization framework touches —
// exactly the services the real framework consumed via Linux and the
// SLIMpro I²C instrumentation interface (§2.1–2.2).
package xgene

import "xvolt/internal/units"

// Params captures Table 2 of the paper: the architectural and
// microarchitectural parameters of the X-Gene 2.
type Params struct {
	ISA          string
	Pipeline     string
	Cores        int
	CoreClockMax units.MegaHertz
	L1I          string
	L1D          string
	L2           string
	L3           string
	Technology   string
	MaxTDPWatts  float64
}

// DefaultParams returns the Table 2 values.
func DefaultParams() Params {
	return Params{
		ISA:          "ARMv8 (AArch64, AArch32, Thumb)",
		Pipeline:     "64-bit OoO (4-issue)",
		Cores:        8,
		CoreClockMax: units.MaxFrequency,
		L1I:          "32KB per core (Parity Protected)",
		L1D:          "32KB per core (Parity Protected)",
		L2:           "256KB per PMD (ECC Protected)",
		L3:           "8MB (ECC Protected)",
		Technology:   "28 nm",
		MaxTDPWatts:  35,
	}
}

// Rows renders the parameters as (name, value) rows in Table 2's order,
// for the report generator.
func (p Params) Rows() [][2]string {
	return [][2]string{
		{"ISA", p.ISA},
		{"Pipeline", p.Pipeline},
		{"CPU", "8 cores"},
		{"Core clock", "2.4 GHz"},
		{"L1 Instr. cache", p.L1I},
		{"L1 Data cache", p.L1D},
		{"L2 cache", p.L2},
		{"L3 cache", p.L3},
		{"Technology", p.Technology},
		{"Max TDP", "35 W"},
	}
}
