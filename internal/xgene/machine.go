package xgene

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"xvolt/internal/edac"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
)

// Errors returned by machine operations.
var (
	// ErrUnresponsive is returned while the machine is crashed/hung; only
	// the power and reset lines work in that state.
	ErrUnresponsive = errors.New("xgene: system unresponsive")
	// ErrPoweredOff is returned while the board is powered down.
	ErrPoweredOff = errors.New("xgene: system powered off")
	// ErrBadVoltage rejects voltages off the regulation grid or range.
	ErrBadVoltage = errors.New("xgene: voltage outside regulator range/grid")
	// ErrBadFrequency rejects frequencies off the PLL grid.
	ErrBadFrequency = errors.New("xgene: frequency outside PLL range/grid")
	// ErrBadCore rejects out-of-range core indices.
	ErrBadCore = errors.New("xgene: no such core")
	// ErrBusyCore is returned when a run is already active on the core.
	ErrBusyCore = errors.New("xgene: core busy")
)

// Voltage-regulator limits. The PMD rail scales downward from its 980 mV
// nominal in 5 mV steps (§2.1); 600 mV is the regulator's hard floor.
const (
	MinPMDVoltage units.MilliVolts = 600
	MaxPMDVoltage units.MilliVolts = units.NominalPMD
)

// RunResult is what a benchmark run on a core yields, as observable by
// system software: the exit status, the program output (checksum), and
// whether the whole system survived. The embedded Effects are the
// silicon-level ground truth — the harness must not classify from them
// (it uses output comparison, EDAC deltas and liveness instead), but
// tests use them as an oracle.
type RunResult struct {
	Output   uint64
	ExitCode int
	SystemUp bool
	//xvolt:lint-ignore unusedexport the tests' oracle for classification from observables; the harness must not read it
	GroundTru silicon.RunEffects
}

// Machine is one X-Gene 2 board.
type Machine struct {
	mu sync.Mutex

	chip  *silicon.Chip
	model silicon.Model

	powered      bool
	responsive   bool
	bootCount    int
	heartbeat    uint64           // serial heartbeat; a live kernel advances it
	pmdVoltage   units.MilliVolts // one rail for all PMDs
	pmdFrequency [silicon.NumPMDs]units.MegaHertz

	fanPercent float64

	protection silicon.Protection

	busy [silicon.NumCores]bool

	edac *edac.Driver

	// marginCache memoizes chip.Assess per (core, spec, regime). The die
	// is immutable after fabrication, so an assessment is a pure function
	// of the key; caching it takes the dominant per-run cost off the hot
	// path (see Machine.Assess).
	marginMu    sync.Mutex
	marginCache map[marginKey]silicon.Margins
}

// New boots a machine around a fabricated chip using the X-Gene failure
// model. The board comes up at nominal voltage and maximum frequency.
func New(chip *silicon.Chip) *Machine {
	return NewWithModel(chip, silicon.XGene)
}

// NewWithModel boots a machine with an explicit failure model (the
// Itanium-like model supports the §3.4 cross-architecture comparison).
func NewWithModel(chip *silicon.Chip, model silicon.Model) *Machine {
	m := &Machine{
		chip:  chip,
		model: model,
		edac:  edac.New(),
	}
	m.powerOnLocked()
	return m
}

// powerOnLocked resets all state to a fresh nominal boot.
func (m *Machine) powerOnLocked() {
	m.powered = true
	m.responsive = true
	m.bootCount++
	m.pmdVoltage = units.NominalPMD
	for i := range m.pmdFrequency {
		m.pmdFrequency[i] = units.MaxFrequency
	}
	m.fanPercent = 60
	m.busy = [silicon.NumCores]bool{}
	m.edac.Reset()
}

// Chip exposes the underlying die (for tests and reports).
func (m *Machine) Chip() *silicon.Chip { return m.chip }

// EDAC returns the board's error-reporting driver.
func (m *Machine) EDAC() *edac.Driver { return m.edac }

// BootCount reports how many times the board has powered on.
func (m *Machine) BootCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bootCount
}

// Responsive reports whether the system answers (the watchdog's liveness
// probe uses the heartbeat instead; this is for the harness and tests).
func (m *Machine) Responsive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.powered && m.responsive
}

// --- physical lines (wired to the external watchdog, Fig. 2) ---

// PowerOff cuts board power (the watchdog's power switch).
func (m *Machine) PowerOff() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.powered = false
	m.responsive = false
}

// PowerOn powers the board and boots it at nominal settings.
func (m *Machine) PowerOn() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.powered {
		m.powerOnLocked()
	}
}

// Reset asserts the reset line: an immediate reboot to nominal settings.
func (m *Machine) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.powerOnLocked()
}

// Heartbeat ticks and returns the serial heartbeat if the system is alive.
// A crashed or powered-off system stops ticking — that is the watchdog's
// hang signal.
func (m *Machine) Heartbeat() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.powered && m.responsive {
		m.heartbeat++
	}
	return m.heartbeat
}

// --- voltage and frequency regulation (SLIMpro services, §2.1) ---

// checkAlive returns the error matching the machine's state, if any.
func (m *Machine) checkAliveLocked() error {
	if !m.powered {
		return ErrPoweredOff
	}
	if !m.responsive {
		return ErrUnresponsive
	}
	return nil
}

// SetPMDVoltage scales the shared PMD rail. All four PMDs move together —
// the coarse-grained domain design the paper's §6 critiques.
func (m *Machine) SetPMDVoltage(v units.MilliVolts) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAliveLocked(); err != nil {
		return err
	}
	if v < MinPMDVoltage || v > MaxPMDVoltage || !v.OnGrid() {
		return fmt.Errorf("%w: %v", ErrBadVoltage, v)
	}
	m.pmdVoltage = v
	return nil
}

// PMDVoltage returns the current shared-rail voltage.
func (m *Machine) PMDVoltage() units.MilliVolts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pmdVoltage
}

// SoCVoltage returns the PCP/SoC rail voltage. The framework never moves
// it from nominal.
func (m *Machine) SoCVoltage() units.MilliVolts { return units.NominalSoC }

// SetPMDFrequency sets one PMD's clock (300–2400 MHz, 300 MHz steps).
func (m *Machine) SetPMDFrequency(pmd int, f units.MegaHertz) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAliveLocked(); err != nil {
		return err
	}
	if pmd < 0 || pmd >= silicon.NumPMDs {
		return fmt.Errorf("xgene: no such PMD %d", pmd)
	}
	if !units.ValidFrequency(f) {
		return fmt.Errorf("%w: %v", ErrBadFrequency, f)
	}
	m.pmdFrequency[pmd] = f
	return nil
}

// PMDFrequency returns one PMD's clock.
func (m *Machine) PMDFrequency(pmd int) units.MegaHertz {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pmdFrequency[pmd]
}

// SetProtection reconfigures the §6 design-enhancement knobs (stronger
// ECC, adaptive clocking). On real silicon these are fabrication choices;
// here they drive the ablation experiments.
func (m *Machine) SetProtection(p silicon.Protection) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.protection = p
}

// --- thermal control (§3.1 pins the die at 43 °C via fan speed) ---

// Temperature models the die temperature: ambient plus a load/voltage term
// minus fan cooling. The harness adjusts the fan until this reads the
// 43 °C target used throughout the paper's experiments.
func (m *Machine) Temperature() units.Celsius {
	m.mu.Lock()
	defer m.mu.Unlock()
	dissipation := m.estimatePowerLocked()
	ambient := 25.0
	heat := dissipation * 1.8
	cooling := m.fanPercent * 0.60
	t := ambient + heat - cooling
	if t < ambient {
		t = ambient
	}
	return units.Celsius(t)
}

// StabilizeTemperature adjusts fan duty so Temperature() lands within
// 0.5 °C of target (like the paper's pinned 43 °C), or returns false if
// the fan range cannot reach it.
func (m *Machine) StabilizeTemperature(target units.Celsius) bool {
	for i := 0; i < 64; i++ {
		cur := m.Temperature()
		diff := float64(cur - target)
		if diff < 0.5 && diff > -0.5 {
			return true
		}
		m.mu.Lock()
		next := m.fanPercent + diff*0.5
		if next < 0 {
			next = 0
		}
		if next > 100 {
			next = 100
		}
		stuck := next == m.fanPercent
		m.fanPercent = next
		m.mu.Unlock()
		if stuck {
			return false
		}
	}
	cur := m.Temperature()
	diff := float64(cur - target)
	return diff < 0.5 && diff > -0.5
}

// --- execution ---

// RunOnCore executes a benchmark on a core at the current operating point.
// The run's fate is drawn from the silicon model; a system crash leaves the
// machine unresponsive until the watchdog power-cycles it.
//
// rng supplies this run's non-determinism (voltage droop phase etc.).
func (m *Machine) RunOnCore(core int, spec *workload.Spec, rng *rand.Rand) (RunResult, error) {
	m.mu.Lock()
	if err := m.checkAliveLocked(); err != nil {
		m.mu.Unlock()
		return RunResult{}, err
	}
	if core < 0 || core >= silicon.NumCores {
		m.mu.Unlock()
		return RunResult{}, fmt.Errorf("%w: %d", ErrBadCore, core)
	}
	if m.busy[core] {
		m.mu.Unlock()
		return RunResult{}, fmt.Errorf("%w: core %d", ErrBusyCore, core)
	}
	m.busy[core] = true
	pmd := silicon.PMDOf(core)
	freq := m.pmdFrequency[pmd]
	volt := m.pmdVoltage
	bs := m.batchStateLocked()
	m.mu.Unlock()

	margins := m.Assess(core, spec, units.RegimeOf(freq))
	// The run's draws are SampleCell's: the batch engine's contract holds
	// by construction.
	cell := SampleCell(rng, bs, margins, volt)
	effects := cell.Effects
	res := RunResult{SystemUp: true, GroundTru: effects}

	// Hardware error reporting happens regardless of program fate.
	for _, loc := range edac.Locations {
		if n := cell.Delta.CE[loc]; n > 0 {
			m.edac.ReportCE(loc, core, int(n))
		}
	}
	for _, loc := range edac.Locations {
		if n := cell.Delta.UE[loc]; n > 0 {
			m.edac.ReportUE(loc, core, int(n))
		}
	}

	switch {
	case effects.SC:
		m.mu.Lock()
		m.responsive = false
		m.busy[core] = false
		m.mu.Unlock()
		res.SystemUp = false
		res.ExitCode = -1
		return res, nil
	case effects.AC:
		res.ExitCode = 134 // SIGABRT-style abnormal termination
	case effects.SDC:
		res.Output = spec.Run(workload.NewBitflip(rng, effects.SDCBits))
		res.ExitCode = 0
	default:
		// A run with no silicon-level corruption reproduces the reference
		// checksum by construction (the golden IS a Nop-injected run), so
		// the kernel itself can be skipped.
		res.Output = spec.Golden()
		res.ExitCode = 0
	}

	m.mu.Lock()
	m.busy[core] = false
	m.mu.Unlock()
	return res, nil
}

// sampleLoc picks a plausible reporting structure for an ECC event: mostly
// the big ECC-protected arrays (L2/L3), occasionally DRAM.
func sampleLoc(rng *rand.Rand) edac.Location {
	switch r := rng.Float64(); {
	case r < 0.45:
		return edac.L2
	case r < 0.85:
		return edac.L3
	default:
		return edac.DRAM
	}
}

// estimatePowerLocked returns the PMpro's board power estimate in watts:
// dynamic f·V² per PMD plus corner-dependent leakage plus the SoC domain.
func (m *Machine) estimatePowerLocked() float64 {
	if !m.powered {
		return 0
	}
	const pmdMaxDynamic = 6.0 // W per PMD at 2.4 GHz / 980 mV
	dynamic := 0.0
	vRel := m.pmdVoltage.RelativeSquared()
	for pmd := 0; pmd < silicon.NumPMDs; pmd++ {
		fRel := m.pmdFrequency[pmd].GHz() / units.MaxFrequency.GHz()
		dynamic += pmdMaxDynamic * fRel * vRel
	}
	leak := 3.0 * m.chip.Corner().Leakage() * (m.pmdVoltage.Volts() / units.NominalPMD.Volts())
	soc := 4.0 * units.NominalSoC.RelativeSquared()
	return dynamic + leak + soc
}

// EstimatePower returns the PMpro's board power estimate in watts.
func (m *Machine) EstimatePower() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.estimatePowerLocked()
}
