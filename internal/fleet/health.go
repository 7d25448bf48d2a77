// Per-board health-state machine. Each poll condenses into a Signal
// (EDAC CE/UE deltas, output-comparison SDCs, application crashes,
// watchdog recoveries, and the §3.4.1 severity-function value of the
// poll's runs); the machine walks
//
//	healthy → degraded → unhealthy           (escalating error signals)
//	any     → recovering                     (watchdog power cycle)
//	…       → one level down                 (after a clean streak)
//
// and its transitions are what the guardband controller consumes to
// widen or narrow the board's operating margin.

package fleet

import (
	"fmt"
	"io"

	apiv1 "xvolt/api/v1"
)

// State is a board's health state.
type State int

const (
	// Healthy: polls are clean at the current operating point.
	Healthy State = iota
	// Degraded: recoverable error signals (SDCs, CE bursts, mild
	// severity) without data-loss or availability impact.
	Degraded
	// Unhealthy: uncorrected errors or severity past the unhealthy
	// threshold — the operating point is eating into required margin.
	Unhealthy
	// Recovering: the watchdog power-cycled the board; it is back up but
	// has not yet proven a clean streak.
	Recovering
	numStates
)

// States lists all health states in escalation order.
var States = []State{Healthy, Degraded, Unhealthy, Recovering}

// String names the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Unhealthy:
		return "unhealthy"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// HealthPolicy parameterizes the state machine's thresholds.
type HealthPolicy struct {
	// DegradeCE is the per-poll corrected-error delta that degrades a
	// healthy board (CE alone is the mildest Table 3 signal).
	DegradeCE uint64
	// DegradeSeverity degrades on the poll's severity-function value.
	DegradeSeverity float64
	// UnhealthyUE marks the board unhealthy on this many uncorrected
	// errors in one poll.
	UnhealthyUE uint64
	// UnhealthySeverity marks the board unhealthy past this severity.
	UnhealthySeverity float64
	// CleanPolls is the consecutive-clean-poll streak needed to step one
	// level back toward healthy.
	CleanPolls int
}

// DefaultHealthPolicy returns thresholds matched to the paper's severity
// scale (Table 4 weights: a single SDC run out of two scores 2.0).
func DefaultHealthPolicy() HealthPolicy {
	return HealthPolicy{
		DegradeCE:         1,
		DegradeSeverity:   0.5,
		UnhealthyUE:       1,
		UnhealthySeverity: 6,
		CleanPolls:        3,
	}
}

// Signal is one poll's condensed evidence, the health machine's input.
type Signal struct {
	CE, UE   uint64  // EDAC deltas over the poll
	SDC      bool    // any output mismatch
	AC       bool    // any application crash
	Rebooted bool    // the watchdog had to power-cycle
	Severity float64 // severity-function value of the poll's tally
}

// clean reports a poll with no failure indication at all.
func (g Signal) clean() bool {
	return g.CE == 0 && g.UE == 0 && !g.SDC && !g.AC && !g.Rebooted
}

// healthMachine tracks one board's state and clean streak.
type healthMachine struct {
	state State
	clean int
}

// observe folds one poll's signal in and returns the new state plus
// whether (and why) it changed.
func (h *healthMachine) observe(sig Signal, pol HealthPolicy) (to State, reason string, changed bool) {
	from := h.state
	switch {
	case sig.Rebooted:
		h.clean = 0
		h.state = Recovering
		return Recovering, "watchdog power-cycled the board", from != Recovering

	case sig.UE >= pol.UnhealthyUE && pol.UnhealthyUE > 0,
		sig.Severity >= pol.UnhealthySeverity && pol.UnhealthySeverity > 0:
		h.clean = 0
		h.state = Unhealthy
		return Unhealthy, fmt.Sprintf("ue=%d severity=%.2f", sig.UE, sig.Severity), from != Unhealthy

	case !sig.clean():
		h.clean = 0
		// Any error signal pins the board at least at degraded; unhealthy
		// boards stay unhealthy until they earn a clean streak.
		if from == Healthy || from == Recovering {
			h.state = Degraded
			return Degraded, fmt.Sprintf("ce=%d sdc=%v ac=%v severity=%.2f", sig.CE, sig.SDC, sig.AC, sig.Severity), true
		}
		return from, "", false

	default:
		h.clean++
		if pol.CleanPolls > 0 && h.clean >= pol.CleanPolls && from != Healthy {
			h.clean = 0
			next := Healthy
			if from == Unhealthy {
				next = Degraded
			}
			h.state = next
			return next, fmt.Sprintf("%d clean polls", pol.CleanPolls), true
		}
		return from, "", false
	}
}

// writeTransitions dumps a transitions slice one per line, in the
// api/v1 rendering the hub also uses.
func writeTransitions(w io.Writer, ts []apiv1.Transition) error {
	for _, t := range ts {
		if _, err := fmt.Fprintln(w, t); err != nil {
			return err
		}
	}
	return nil
}
