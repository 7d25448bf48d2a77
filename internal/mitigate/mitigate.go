// Package mitigate implements the recovery machinery §4.4 of the paper
// names — checkpoint/rollback and safe re-execution — and the
// SDC-tolerant application classes that may run below the safe Vmin on
// purpose.
package mitigate

import (
	"errors"
	"fmt"
	"math/rand"

	"xvolt/internal/randsrc"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

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
