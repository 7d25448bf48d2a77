// Phased workloads. Real programs move through execution phases with
// different microarchitectural behavior (memory-bound setup, compute-bound
// solve, …); a voltage governor that reacts per phase instead of per
// program harvests the margin of each phase separately. This file models
// multi-phase programs; the per-phase governing experiment lives in
// internal/experiments.
package workload

import (
	"errors"
	"fmt"
	"math"
)

// Phase is one temporal section of a phased program.
type Phase struct {
	// Spec describes the phase's behavior (profile, kernel, stress).
	Spec *Spec
	// Weight is the fraction of runtime spent in the phase.
	Weight float64
}

// Phased is a program that moves through phases in order.
type Phased struct {
	Phases []Phase
}

// NewPhased builds a phased program. Weights must be positive and sum to
// 1 within 1e-6.
func NewPhased(phases []Phase) (*Phased, error) {
	if len(phases) == 0 {
		return nil, errors.New("workload: phased program needs phases")
	}
	sum := 0.0
	for i, ph := range phases {
		if ph.Spec == nil {
			return nil, fmt.Errorf("workload: phase %d has no spec", i)
		}
		if ph.Weight <= 0 {
			return nil, fmt.Errorf("workload: phase %d weight %v", i, ph.Weight)
		}
		sum += ph.Weight
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("workload: phase weights sum to %v, want 1", sum)
	}
	return &Phased{Phases: phases}, nil
}
