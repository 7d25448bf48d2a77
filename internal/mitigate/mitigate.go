// Package mitigate implements §4.4 of the paper: turning an observed or
// predicted severity profile into an operating decision, plus the recovery
// machinery the paper names — checkpoint/rollback and safe re-execution —
// and the SDC-tolerant application classes that may run below the safe
// Vmin on purpose.
package mitigate

import (
	"errors"
	"fmt"
	"math/rand"

	"xvolt/internal/core"
	"xvolt/internal/randsrc"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// Action is the §4.4 mitigation decision for a voltage range.
type Action int

const (
	// NoAction: the range is predicted safe; minimum savings, no
	// provision needed.
	NoAction Action = iota
	// ECCMonitor: corrected errors appear first (the Itanium-like regime):
	// ECC hardware serves as the undervolting proxy; large savings without
	// extra mitigation, but going lower is risky.
	ECCMonitor
	// AvoidOrProtect: SDCs appear (alone or with ECC events): outputs are
	// wrong with no or partial notification. Requires checkpoint/rollback,
	// re-execution at safe settings, or an SDC-tolerant application.
	AvoidOrProtect
	// Unusable: application/system crashes are systematic; the range is
	// beyond usable operation without hardware redesign.
	Unusable
)

// String names the action.
func (a Action) String() string {
	switch a {
	case NoAction:
		return "no-action"
	case ECCMonitor:
		return "ecc-monitor"
	case AvoidOrProtect:
		return "avoid-or-protect"
	case Unusable:
		return "unusable"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Decide maps one voltage step's observation (measured or predicted) to
// the §4.4 action. The primary discriminator is which effects are present,
// exactly as the paper's prose walks the severity classes 0 / 1 / 4–7 /
// 8–19.
func Decide(o core.Observation) Action {
	switch {
	case o.SC || o.AC:
		return Unusable
	case o.SDC:
		return AvoidOrProtect
	case o.CE || o.UE:
		return ECCMonitor
	default:
		return NoAction
	}
}

// DecideSeverity maps a scalar severity value (e.g. a §4.3 prediction,
// where individual effect bits are not available) to the action using the
// paper's Table 4 anchor values.
func DecideSeverity(severity float64) Action {
	switch {
	case severity <= 0:
		return NoAction
	case severity < 4:
		return ECCMonitor
	case severity < 8:
		return AvoidOrProtect
	default:
		return Unusable
	}
}

// TolerantClass enumerates the §4.4 application classes that can accept
// SDCs (severity ≤ 4) for extra efficiency.
type TolerantClass int

const (
	// Strict applications tolerate nothing abnormal.
	Strict TolerantClass = iota
	// Approximate computing algorithms.
	Approximate
	// Media covers video streaming and image/video processing.
	Media
	// Detection covers security detectors (e.g. jammer attack detectors).
	Detection
)

// MaxSeverity returns the severity budget of the class: tolerant classes
// accept SDC-level severity (≤ 4), strict ones accept none.
func (c TolerantClass) MaxSeverity() float64 {
	if c == Strict {
		return 0
	}
	return 4
}

// String names the class.
func (c TolerantClass) String() string {
	switch c {
	case Strict:
		return "strict"
	case Approximate:
		return "approximate"
	case Media:
		return "media"
	case Detection:
		return "detection"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Executor runs workloads under a protection policy on a machine:
// checkpoint/rollback by output validation and re-execution, escalating to
// a known-safe voltage after repeated failures (§4.4 "recovery actions ...
// rollback to a previously stored check-point or program re-execution in
// safe voltage and frequency combinations").
type Executor struct {
	Machine *xgene.Machine
	// SafeVoltage is the escalation point for re-execution.
	SafeVoltage units.MilliVolts
	// MaxRetries bounds rollback attempts before escalating.
	MaxRetries int
	// Rng drives the runs.
	Rng *rand.Rand
}

// Outcome summarizes a protected execution.
type Outcome struct {
	// Output is the final (validated or tolerated) program output.
	Output uint64
	// Correct reports whether the final output matches the golden one.
	Correct bool
	// Retries is how many rollbacks were needed.
	Retries int
	// Escalated reports whether the run fell back to SafeVoltage.
	Escalated bool
}

// Errors returned by the executor.
var (
	ErrMachineDown = errors.New("mitigate: machine unresponsive")
	ErrNoMachine   = errors.New("mitigate: executor has no machine")
)

// Run executes spec on core under the protection policy. For Strict
// workloads any output mismatch triggers rollback/re-execution, then
// escalation to the safe voltage; tolerant classes accept SDC outputs.
func (e *Executor) Run(spec *workload.Spec, coreID int, class TolerantClass) (Outcome, error) {
	if e.Machine == nil {
		return Outcome{}, ErrNoMachine
	}
	if e.Rng == nil {
		e.Rng = randsrc.New(1)
	}
	var out Outcome
	golden := spec.Golden()
	for attempt := 0; ; attempt++ {
		if !e.Machine.Responsive() {
			return out, ErrMachineDown
		}
		res, err := e.Machine.RunOnCore(coreID, spec, e.Rng)
		if err != nil {
			return out, err
		}
		if !res.SystemUp {
			return out, ErrMachineDown
		}
		ok := res.ExitCode == 0
		if ok {
			out.Output = res.Output
			out.Correct = res.Output == golden
		}
		// Tolerant classes accept wrong-but-present output (SDC ≤ 4).
		if ok && (out.Correct || class != Strict) {
			return out, nil
		}
		// Rollback and retry; escalate after MaxRetries.
		out.Retries++
		if out.Retries > e.MaxRetries && !out.Escalated {
			if err := e.Machine.SetPMDVoltage(e.SafeVoltage); err != nil {
				return out, err
			}
			out.Escalated = true
		}
		if out.Retries > e.MaxRetries*2+4 {
			return out, fmt.Errorf("mitigate: %s did not converge after %d retries", spec.ID(), out.Retries)
		}
	}
}
