// Package sched implements the system-software side of §5: task-to-core
// allocation guided by per-(program, core) safe-voltage knowledge, and an
// online voltage governor that turns severity predictions into rail
// settings.
//
// Because all PMDs share one voltage rail, the chip must run at the
// maximum requirement over every placed task (§5); the scheduler therefore
// solves a bottleneck assignment problem — place tasks on cores so that
// the worst (task, core) Vmin is as low as possible — and the governor
// picks the lowest rail voltage whose predicted severity stays under the
// caller's tolerance on every core.
package sched

import (
	"errors"
	"fmt"
	"sort"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
)

// VminOf reports the safe Vmin of a program on a core — backed by either
// characterization results or a predictor.
type VminOf func(spec *workload.Spec, core int) units.MilliVolts

// Placement maps cores to tasks (nil = idle core) with the shared-rail
// voltage the placement requires at full speed.
type Placement struct {
	ByCore  [silicon.NumCores]*workload.Spec
	Voltage units.MilliVolts
}

// Errors returned by assignment.
var (
	ErrTooManyTasks = errors.New("sched: more tasks than cores")
	ErrNoTasks      = errors.New("sched: no tasks")
)

// requiredVoltage computes the max Vmin over a placement.
func requiredVoltage(p *Placement, vmin VminOf) units.MilliVolts {
	req := units.MilliVolts(0)
	for core, spec := range p.ByCore {
		if spec == nil {
			continue
		}
		if v := vmin(spec, core); v > req {
			req = v
		}
	}
	return req
}

// NaiveAssign places tasks on cores in index order — what a scheduler
// ignorant of core-to-core variation does.
func NaiveAssign(tasks []*workload.Spec, vmin VminOf) (Placement, error) {
	if len(tasks) == 0 {
		return Placement{}, ErrNoTasks
	}
	if len(tasks) > silicon.NumCores {
		return Placement{}, ErrTooManyTasks
	}
	var p Placement
	for i, tk := range tasks {
		p.ByCore[i] = tk
	}
	p.Voltage = requiredVoltage(&p, vmin)
	return p, nil
}

// Assign solves the bottleneck assignment: place every task so that the
// maximum (task, core) Vmin — and therefore the shared rail voltage — is
// minimized. It binary-searches the candidate thresholds and checks
// feasibility with bipartite matching, so the result is optimal.
func Assign(tasks []*workload.Spec, vmin VminOf) (Placement, error) {
	if len(tasks) == 0 {
		return Placement{}, ErrNoTasks
	}
	if len(tasks) > silicon.NumCores {
		return Placement{}, ErrTooManyTasks
	}
	// Cost matrix and sorted unique thresholds.
	cost := make([][]units.MilliVolts, len(tasks))
	thresholdSet := map[units.MilliVolts]bool{}
	for i, tk := range tasks {
		cost[i] = make([]units.MilliVolts, silicon.NumCores)
		for c := 0; c < silicon.NumCores; c++ {
			cost[i][c] = vmin(tk, c)
			thresholdSet[cost[i][c]] = true
		}
	}
	thresholds := make([]units.MilliVolts, 0, len(thresholdSet))
	for v := range thresholdSet {
		thresholds = append(thresholds, v)
	}
	sort.Slice(thresholds, func(a, b int) bool { return thresholds[a] < thresholds[b] })

	// Binary search the smallest feasible threshold.
	lo, hi := 0, len(thresholds)-1
	var bestMatch []int
	for lo < hi {
		mid := (lo + hi) / 2
		if m := match(cost, thresholds[mid]); m != nil {
			bestMatch = m
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if bestMatch == nil || hi != lo || match(cost, thresholds[lo]) == nil {
		bestMatch = match(cost, thresholds[lo])
	}
	if bestMatch == nil {
		// Unreachable: the max threshold always admits a matching.
		return Placement{}, fmt.Errorf("sched: no feasible assignment")
	}
	var p Placement
	for i, core := range bestMatch {
		p.ByCore[core] = tasks[i]
	}
	p.Voltage = requiredVoltage(&p, vmin)
	return p, nil
}

// match finds a task→core matching using only edges with cost ≤ limit,
// returning the core of each task, or nil if not all tasks can be placed.
// Classic Kuhn augmenting-path matching: fine at this size.
func match(cost [][]units.MilliVolts, limit units.MilliVolts) []int {
	coreOwner := make([]int, silicon.NumCores)
	for i := range coreOwner {
		coreOwner[i] = -1
	}
	var try func(task int, seen []bool) bool
	try = func(task int, seen []bool) bool {
		for c := 0; c < silicon.NumCores; c++ {
			if cost[task][c] > limit || seen[c] {
				continue
			}
			seen[c] = true
			if coreOwner[c] == -1 || try(coreOwner[c], seen) {
				coreOwner[c] = task
				return true
			}
		}
		return false
	}
	for task := range cost {
		if !try(task, make([]bool, silicon.NumCores)) {
			return nil
		}
	}
	out := make([]int, len(cost))
	for c, tk := range coreOwner {
		if tk >= 0 {
			out[tk] = c
		}
	}
	return out
}

// SavingsOver reports the §5 benefit of variation-aware placement: the
// power-saving difference between this placement and another at full
// frequency (both run at their own required voltages).
func (p Placement) SavingsOver(other Placement) float64 {
	return other.Voltage.RelativeSquared() - p.Voltage.RelativeSquared()
}

// Governor picks rail voltages online from severity predictions.
type Governor struct {
	// Predict returns the predicted severity for a core's current
	// workload at a voltage (a fitted §4.3 model behind an adapter).
	Predict func(core int, v units.MilliVolts) (float64, error)
	// MaxSeverity is the operator's tolerance: 0 is fully conservative
	// (stay above the predicted unsafe region); SDC-tolerant applications
	// can accept up to 4 (§4.4).
	MaxSeverity float64
	// Floor and Ceiling bound the search (regulator limits).
	Floor, Ceiling units.MilliVolts
	// Margin is added above the lowest acceptable voltage as a guardband
	// (in grid steps).
	MarginSteps int
}

// ChooseVoltage returns the lowest rail voltage whose predicted severity
// is within tolerance for every active core. Cores with no prediction are
// skipped; if every candidate violates the tolerance the ceiling is
// returned.
func (g *Governor) ChooseVoltage(activeCores []int) (units.MilliVolts, error) {
	if g.Predict == nil {
		return 0, errors.New("sched: governor has no predictor")
	}
	if g.Floor > g.Ceiling || !g.Floor.OnGrid() || !g.Ceiling.OnGrid() {
		return 0, errors.New("sched: invalid governor bounds")
	}
	choice := g.Ceiling
	for v := g.Ceiling; v >= g.Floor; v -= units.VoltageStep {
		ok := true
		for _, core := range activeCores {
			sev, err := g.Predict(core, v)
			if err != nil {
				return 0, err
			}
			if sev > g.MaxSeverity {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		choice = v
	}
	choice += units.MilliVolts(g.MarginSteps) * units.VoltageStep
	choice = units.ClampVoltage(choice, g.Floor, g.Ceiling)
	return choice, nil
}
