package sched

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// chipVmin builds a VminOf from the silicon model at full speed.
func chipVmin(chip *silicon.Chip) VminOf {
	return func(spec *workload.Spec, core int) units.MilliVolts {
		return chip.Assess(core, spec.Profile, spec.Idio(), units.RegimeFull).SafeVmin
	}
}

func eightTasks(t *testing.T) []*workload.Spec {
	t.Helper()
	// The paper's §5 workload: bwaves, cactusADM, dealII, gromacs,
	// leslie3d, mcf, milc, namd.
	return workload.PrimarySuite()[:8]
}

func TestNaiveAssign(t *testing.T) {
	chip := silicon.NewChip(silicon.TTT, 1)
	tasks := eightTasks(t)
	p, err := NaiveAssign(tasks, chipVmin(chip))
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range tasks {
		if p.ByCore[i] != tk {
			t.Errorf("core %d task = %v", i, p.ByCore[i])
		}
	}
	if p.Voltage < 900 || p.Voltage > 930 {
		t.Errorf("naive voltage = %v, expected around 915 (bwaves on the weak PMD0)", p.Voltage)
	}
}

func TestAssignErrors(t *testing.T) {
	chip := silicon.NewChip(silicon.TTT, 1)
	if _, err := Assign(nil, chipVmin(chip)); !errors.Is(err, ErrNoTasks) {
		t.Errorf("no tasks err = %v", err)
	}
	if _, err := NaiveAssign(nil, chipVmin(chip)); !errors.Is(err, ErrNoTasks) {
		t.Errorf("naive no tasks err = %v", err)
	}
	nine := append(append([]*workload.Spec{}, workload.PrimarySuite()...), workload.PrimarySuite()[0])
	if _, err := Assign(nine[:9], chipVmin(chip)); !errors.Is(err, ErrTooManyTasks) {
		t.Errorf("too many err = %v", err)
	}
	if _, err := NaiveAssign(nine[:9], chipVmin(chip)); !errors.Is(err, ErrTooManyTasks) {
		t.Errorf("naive too many err = %v", err)
	}
}

// The optimal assignment never needs more voltage than the naive one, and
// its voltage really covers every placed pair (the safety invariant).
func TestAssignOptimalAndSafe(t *testing.T) {
	for _, chip := range silicon.PaperChips() {
		vmin := chipVmin(chip)
		tasks := eightTasks(t)
		opt, err := Assign(tasks, vmin)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveAssign(tasks, vmin)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Voltage > naive.Voltage {
			t.Errorf("%s: optimal %v worse than naive %v", chip.Name, opt.Voltage, naive.Voltage)
		}
		// Safety: rail covers every placed task.
		placed := 0
		for core, spec := range opt.ByCore {
			if spec == nil {
				continue
			}
			placed++
			if v := vmin(spec, core); v > opt.Voltage {
				t.Errorf("%s: task %s on core %d needs %v > rail %v",
					chip.Name, spec.ID(), core, v, opt.Voltage)
			}
		}
		if placed != len(tasks) {
			t.Errorf("%s: placed %d of %d tasks", chip.Name, placed, len(tasks))
		}
		// No task placed twice.
		seen := map[*workload.Spec]bool{}
		for _, spec := range opt.ByCore {
			if spec == nil {
				continue
			}
			if seen[spec] {
				t.Errorf("%s: task %s placed twice", chip.Name, spec.ID())
			}
			seen[spec] = true
		}
	}
}

// With fewer tasks than cores the scheduler uses the robust cores: placing
// one bwaves task must land on a PMD2 core and need only ≈885 mV.
func TestAssignPrefersRobustCores(t *testing.T) {
	chip := silicon.NewChip(silicon.TTT, 1)
	vmin := chipVmin(chip)
	bw, err := workload.Lookup("bwaves/ref")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Assign([]*workload.Spec{bw}, vmin)
	if err != nil {
		t.Fatal(err)
	}
	core := -1
	for c, s := range p.ByCore {
		if s != nil {
			core = c
		}
	}
	if silicon.PMDOf(core) != 2 {
		t.Errorf("single task placed on core %d (PMD%d), want PMD2", core, silicon.PMDOf(core))
	}
	if p.Voltage > 895 {
		t.Errorf("single-task voltage = %v, want ≈885", p.Voltage)
	}
}

// Property: for random subsets of tasks, Assign is never worse than
// NaiveAssign, and both voltages cover their placements.
func TestAssignProperty(t *testing.T) {
	chip := silicon.NewChip(silicon.TSS, 3)
	vmin := chipVmin(chip)
	all := workload.PredictionSuite()
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%8
		tasks := make([]*workload.Spec, n)
		for i := range tasks {
			tasks[i] = all[rng.Intn(len(all))]
		}
		// Distinct specs only (duplicates not supported by identity check).
		opt, err := Assign(tasks, vmin)
		if err != nil {
			return false
		}
		naive, err := NaiveAssign(tasks, vmin)
		if err != nil {
			return false
		}
		if opt.Voltage > naive.Voltage {
			return false
		}
		for core, spec := range opt.ByCore {
			if spec != nil && vmin(spec, core) > opt.Voltage {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// End to end: run the optimal placement on a machine at its chosen voltage
// — every run must be clean (this is the §5 "preserving correctness"
// claim).
func TestPlacementRunsCleanOnMachine(t *testing.T) {
	chip := silicon.NewChip(silicon.TTT, 1)
	m := xgene.New(chip)
	vmin := chipVmin(chip)
	p, err := Assign(eightTasks(t), vmin)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPMDVoltage(p.Voltage); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 5; round++ {
		for core, spec := range p.ByCore {
			if spec == nil {
				continue
			}
			res, err := m.RunOnCore(core, spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.GroundTru != (silicon.RunEffects{}) {
				t.Fatalf("round %d: %s on core %d at %v misbehaved: %+v",
					round, spec.ID(), core, p.Voltage, res.GroundTru)
			}
		}
	}
}

func TestSavingsOver(t *testing.T) {
	a := Placement{Voltage: 885}
	b := Placement{Voltage: 915}
	if s := a.SavingsOver(b); s <= 0 {
		t.Errorf("savings = %v, want positive", s)
	}
	if s := b.SavingsOver(a); s >= 0 {
		t.Errorf("reverse savings = %v, want negative", s)
	}
}

func TestGovernor(t *testing.T) {
	// Synthetic predictor: severity rises linearly below a per-core safe
	// point (core 0: 910 mV, core 4: 880 mV).
	pred := func(core int, v units.MilliVolts) (float64, error) {
		safe := units.MilliVolts(880)
		if core == 0 {
			safe = 910
		}
		if v >= safe {
			return 0, nil
		}
		return float64(safe-v) * 0.3, nil
	}
	g := &Governor{Predict: pred, MaxSeverity: 0, Floor: 760, Ceiling: 980}
	v, err := g.ChooseVoltage([]int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if v != 910 {
		t.Errorf("conservative choice = %v, want 910 (worst core)", v)
	}
	// Only the robust core active → deeper.
	v, err = g.ChooseVoltage([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if v != 880 {
		t.Errorf("robust-only choice = %v, want 880", v)
	}
	// SDC-tolerant tolerance (§4.4, severity ≤ 4) digs deeper.
	g.MaxSeverity = 4
	v, err = g.ChooseVoltage([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if v >= 910 || v < 895 {
		t.Errorf("tolerant choice = %v, want a bit below 910", v)
	}
	// Margin steps raise the choice.
	g.MarginSteps = 2
	v2, err := g.ChooseVoltage([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v+2*units.VoltageStep {
		t.Errorf("margin choice = %v, want %v", v2, v+2*units.VoltageStep)
	}
}

func TestGovernorErrors(t *testing.T) {
	g := &Governor{}
	if _, err := g.ChooseVoltage([]int{0}); err == nil {
		t.Error("predictor-less governor accepted")
	}
	g.Predict = func(int, units.MilliVolts) (float64, error) { return 0, nil }
	g.Floor, g.Ceiling = 980, 760
	if _, err := g.ChooseVoltage([]int{0}); err == nil {
		t.Error("inverted bounds accepted")
	}
	g.Floor, g.Ceiling = 760, 980
	g.Predict = func(int, units.MilliVolts) (float64, error) { return 0, errors.New("boom") }
	if _, err := g.ChooseVoltage([]int{0}); err == nil {
		t.Error("predictor error swallowed")
	}
}

// A governor whose tolerance nothing satisfies stays at the ceiling.
func TestGovernorCeilingFallback(t *testing.T) {
	g := &Governor{
		Predict:     func(int, units.MilliVolts) (float64, error) { return 99, nil },
		MaxSeverity: 0,
		Floor:       760,
		Ceiling:     980,
	}
	v, err := g.ChooseVoltage([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if v != 980 {
		t.Errorf("fallback = %v, want ceiling", v)
	}
}
