// Package core implements the paper's two contributions: the fully
// automated undervolting characterization framework (§2.2) and the
// severity function that consolidates abnormal behavior into a single
// number per voltage step (§3.4.1).
//
// The framework runs in the paper's three phases — initialization,
// execution, parsing — against an xgene.Machine: it sweeps the voltage
// grid downward, repeats each operating point N times, classifies every
// run from observables only (output comparison, exit status, EDAC deltas,
// system liveness), recovers crashes through the external watchdog, and
// restores nominal conditions after every run so results are safely
// recorded (§2.2.1 "Safe Data Collection").
package core

import (
	"fmt"
	"strings"
)

// Effect is one of the paper's Table 3 outcome classes.
type Effect int

const (
	// NO — normal operation: the benchmark completed with no failure signs.
	NO Effect = iota
	// SDC — silent data corruption: successful completion, wrong output.
	SDC
	// CE — errors detected and corrected by hardware (EDAC).
	CE
	// UE — errors detected but not corrected (EDAC).
	UE
	// AC — application crash: non-zero exit.
	AC
	// SC — system crash: machine unresponsive or timed out.
	SC
)

// Effects lists the non-NO classes in severity-weight order.
var Effects = []Effect{SDC, CE, UE, AC, SC}

// String names the class as in Table 3.
func (e Effect) String() string {
	switch e {
	case NO:
		return "NO"
	case SDC:
		return "SDC"
	case CE:
		return "CE"
	case UE:
		return "UE"
	case AC:
		return "AC"
	case SC:
		return "SC"
	default:
		return fmt.Sprintf("Effect(%d)", int(e))
	}
}

// Description gives the Table 3 wording for reports.
func (e Effect) Description() string {
	switch e {
	case NO:
		return "The benchmark was successfully completed without any indications of failure."
	case SDC:
		return "The benchmark was successfully completed, but a mismatch between the program output and the correct output was observed."
	case CE:
		return "Errors were detected and corrected by the hardware (Linux EDAC driver)."
	case UE:
		return "Errors were detected, but not corrected by the hardware (Linux EDAC driver)."
	case AC:
		return "The application process was not terminated normally (non-zero exit value)."
	case SC:
		return "The system was unresponsive: not responding, or the timeout limit was reached."
	default:
		return "unknown effect"
	}
}

// Weights parameterize the severity function (Table 4). Higher means a
// more critical effect.
type Weights struct {
	SDC, CE, UE, AC, SC float64
}

// PaperWeights are the Table 4 values used in all of the paper's
// experiments (WNO is implicitly 0).
var PaperWeights = Weights{SDC: 4, CE: 1, UE: 2, AC: 8, SC: 16}

// Of returns the weight of an effect (0 for NO and unknown classes).
func (w Weights) Of(e Effect) float64 {
	switch e {
	case SDC:
		return w.SDC
	case CE:
		return w.CE
	case UE:
		return w.UE
	case AC:
		return w.AC
	case SC:
		return w.SC
	default:
		return 0
	}
}

// Observation is what one run manifested, classified from observables. A
// single run can manifest several effects at once (§3.4.1).
type Observation struct {
	SDC, CE, UE, AC, SC bool
}

// Clean reports a Table 3 "NO" run.
func (o Observation) Clean() bool { return !o.SDC && !o.CE && !o.UE && !o.AC && !o.SC }

// Effects lists the classes this observation manifests, or [NO].
func (o Observation) EffectList() []Effect {
	if o.Clean() {
		return []Effect{NO}
	}
	var out []Effect
	if o.SDC {
		out = append(out, SDC)
	}
	if o.CE {
		out = append(out, CE)
	}
	if o.UE {
		out = append(out, UE)
	}
	if o.AC {
		out = append(out, AC)
	}
	if o.SC {
		out = append(out, SC)
	}
	return out
}

// String renders like "SDC+CE" or "NO".
func (o Observation) String() string {
	list := o.EffectList()
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = e.String()
	}
	return strings.Join(parts, "+")
}

// Tally accumulates the observations of the N runs at one voltage step.
// Each counter is the number of runs that manifested the effect (not the
// number of error events — per §3.4.1 the event counts are not used).
type Tally struct {
	N                   int
	SDC, CE, UE, AC, SC int
}

// Add folds one run's observation into the tally.
func (t *Tally) Add(o Observation) {
	t.N++
	if o.SDC {
		t.SDC++
	}
	if o.CE {
		t.CE++
	}
	if o.UE {
		t.UE++
	}
	if o.AC {
		t.AC++
	}
	if o.SC {
		t.SC++
	}
}

// merge folds another tally of the same voltage step into t, as if its
// runs had been added one by one.
func (t *Tally) merge(o Tally) {
	t.N += o.N
	t.SDC += o.SDC
	t.CE += o.CE
	t.UE += o.UE
	t.AC += o.AC
	t.SC += o.SC
}

// AllClean reports whether none of the N runs manifested any effect.
func (t Tally) AllClean() bool {
	return t.SDC == 0 && t.CE == 0 && t.UE == 0 && t.AC == 0 && t.SC == 0
}

// AnySC reports whether at least one run led to a system crash — the
// paper's criterion for the crash region.
func (t Tally) AnySC() bool { return t.SC > 0 }

// Severity evaluates the paper's severity function
//
//	S_v = W_SDC·SDC/N + W_CE·CE/N + W_UE·UE/N + W_AC·AC/N + W_SC·SC/N
//
// over the tally. An empty tally has severity 0.
func (t Tally) Severity(w Weights) float64 {
	if t.N == 0 {
		return 0
	}
	n := float64(t.N)
	return w.SDC*float64(t.SDC)/n +
		w.CE*float64(t.CE)/n +
		w.UE*float64(t.UE)/n +
		w.AC*float64(t.AC)/n +
		w.SC*float64(t.SC)/n
}

// MaxSeverity is the largest value the severity function can take with the
// given weights (every run manifesting every effect).
func MaxSeverity(w Weights) float64 {
	return w.SDC + w.CE + w.UE + w.AC + w.SC
}
