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
	MinSoCVoltage units.MilliVolts = 600
	MaxSoCVoltage units.MilliVolts = units.NominalSoC
)

// railLines and clockLines intern the console lines of the two SLIMpro
// writes a Vmin bisection makes on every run: one line per shared-rail
// voltage on the 5 mV grid, and one per (PMD, clock). They are formatted
// once, at package initialization, so such a write appends only a string
// header. Every other console line is formatted when it is written.
var (
	railLines  = internRailLines()
	clockLines = internClockLines()
)

func internRailLines() (out [(MaxPMDVoltage-MinPMDVoltage)/units.VoltageStep + 1]string) {
	for i := range out {
		v := MinPMDVoltage + units.MilliVolts(i)*units.VoltageStep
		out[i] = fmt.Sprintf("slimpro: pmd rail -> %v", v)
	}
	return out
}

func internClockLines() (out [silicon.NumPMDs][(units.MaxFrequency-units.MinFrequency)/units.FrequencyStep + 1]string) {
	for pmd := range out {
		for i := range out[pmd] {
			f := units.MinFrequency + units.MegaHertz(i)*units.FrequencyStep
			out[pmd][i] = fmt.Sprintf("slimpro: pmd%d clock -> %v", pmd, f)
		}
	}
	return out
}

// RunResult is what a benchmark run on a core yields, as observable by
// system software: the exit status, the program output (checksum), and
// whether the whole system survived. The embedded Effects are the
// silicon-level ground truth — the harness must not classify from them
// (it uses output comparison, EDAC deltas and liveness instead), but
// tests use them as an oracle.
type RunResult struct {
	Output    uint64
	ExitCode  int
	SystemUp  bool
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
	pmdVoltage   units.MilliVolts // one rail for all PMDs
	perPMDRails  bool             // §6 "finer-grained domains" ablation
	pmdVoltages  [silicon.NumPMDs]units.MilliVolts
	socVoltage   units.MilliVolts
	pmdFrequency [silicon.NumPMDs]units.MegaHertz

	tempTarget units.Celsius
	fanPercent float64

	protection  silicon.Protection
	dramRefresh float64 // refresh-interval multiplier, 1.0 = stock

	busy [silicon.NumCores]bool

	edac    *edac.Driver
	console *Console
	params  Params

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
		chip:    chip,
		model:   model,
		edac:    edac.New(),
		console: newConsole(512),
		params:  DefaultParams(),
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
	for i := range m.pmdVoltages {
		m.pmdVoltages[i] = units.NominalPMD
	}
	m.socVoltage = units.NominalSoC
	for i := range m.pmdFrequency {
		m.pmdFrequency[i] = units.MaxFrequency
	}
	m.tempTarget = 43
	m.fanPercent = 60
	m.dramRefresh = 1.0
	m.busy = [silicon.NumCores]bool{}
	m.edac.Reset()
	m.console.clear()
	m.console.Printf("xgene2: boot #%d chip=%s model=%s", m.bootCount, m.chip.Name, m.model)
}

// Chip exposes the underlying die (for tests and reports).
func (m *Machine) Chip() *silicon.Chip { return m.chip }

// Model returns the failure model the machine samples runs from.
func (m *Machine) Model() silicon.Model { return m.model }

// Clone fabricates a fresh board around the same die, failure model and
// configuration knobs (protection, per-PMD rails, DRAM refresh). The
// clone boots independently at nominal settings with its own EDAC driver
// and console — the parallel campaign engine hands each worker a clone so
// no lock is contended on the simulated SLIMpro path. The die itself is
// shared: a Chip is immutable after fabrication.
func (m *Machine) Clone() *Machine {
	m.mu.Lock()
	chip, model := m.chip, m.model
	prot, rails, refresh := m.protection, m.perPMDRails, m.dramRefresh
	m.mu.Unlock()
	c := NewWithModel(chip, model)
	c.protection = prot
	c.perPMDRails = rails
	c.dramRefresh = refresh
	return c
}

// Params returns the board's Table 2 parameters.
func (m *Machine) Params() Params { return m.params }

// EDAC returns the board's error-reporting driver.
func (m *Machine) EDAC() *edac.Driver { return m.edac }

// Console returns the serial console.
func (m *Machine) Console() *Console { return m.console }

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
	alive := m.powered && m.responsive
	m.mu.Unlock()
	if alive {
		m.console.beat()
	}
	return m.console.Heartbeat()
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
	for i := range m.pmdVoltages {
		m.pmdVoltages[i] = v
	}
	m.console.writeLine(railLines[(v-MinPMDVoltage)/units.VoltageStep])
	return nil
}

// PMDVoltage returns the current shared-rail voltage. With per-PMD rails
// enabled it returns the highest rail.
func (m *Machine) PMDVoltage() units.MilliVolts {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.perPMDRails {
		return m.pmdVoltage
	}
	maxV := m.pmdVoltages[0]
	for _, v := range m.pmdVoltages[1:] {
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// EnablePerPMDRails turns on the hypothetical finer-grained voltage-domain
// design of §6 ("Design Enhancements"): each PMD gets its own rail. This
// does not exist on real X-Gene 2 silicon; it powers the ablation study.
func (m *Machine) EnablePerPMDRails() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.perPMDRails = true
	m.console.Printf("slimpro: per-PMD voltage rails enabled (what-if)")
}

// PerPMDRails reports whether the §6 ablation mode is active.
func (m *Machine) PerPMDRails() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perPMDRails
}

// SetPMDRail sets one PMD's rail in the §6 ablation mode.
func (m *Machine) SetPMDRail(pmd int, v units.MilliVolts) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAliveLocked(); err != nil {
		return err
	}
	if !m.perPMDRails {
		return errors.New("xgene: per-PMD rails not enabled")
	}
	if pmd < 0 || pmd >= silicon.NumPMDs {
		return fmt.Errorf("xgene: no such PMD %d", pmd)
	}
	if v < MinPMDVoltage || v > MaxPMDVoltage || !v.OnGrid() {
		return fmt.Errorf("%w: %v", ErrBadVoltage, v)
	}
	m.pmdVoltages[pmd] = v
	m.console.Printf("slimpro: pmd%d rail -> %v", pmd, v)
	return nil
}

// PMDRail returns one PMD's rail voltage.
func (m *Machine) PMDRail(pmd int) units.MilliVolts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pmdVoltages[pmd]
}

// SetSoCVoltage scales the PCP/SoC domain rail (independent of the PMDs).
func (m *Machine) SetSoCVoltage(v units.MilliVolts) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAliveLocked(); err != nil {
		return err
	}
	if v < MinSoCVoltage || v > MaxSoCVoltage || !v.OnGrid() {
		return fmt.Errorf("%w: %v", ErrBadVoltage, v)
	}
	m.socVoltage = v
	m.console.Printf("slimpro: soc rail -> %v", v)
	return nil
}

// SoCVoltage returns the PCP/SoC rail voltage.
func (m *Machine) SoCVoltage() units.MilliVolts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.socVoltage
}

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
	m.console.writeLine(clockLines[pmd][(f-units.MinFrequency)/units.FrequencyStep])
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
	m.console.Printf("fab: protection ecc=%v adaptive-clocking=%v", p.ECC, p.AdaptiveClocking)
}

// Protection returns the active enhancement configuration.
func (m *Machine) Protection() silicon.Protection {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.protection
}

// SetDRAMRefresh scales the DRAM refresh interval (SLIMpro can "change
// DRAM refresh rate", §2.1). 1.0 is stock; larger values refresh less
// often, saving a little power but leaking cells into the ECC path beyond
// 2× (and rejected beyond 4×).
func (m *Machine) SetDRAMRefresh(mult float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAliveLocked(); err != nil {
		return err
	}
	if mult < 0.5 || mult > 4.0 {
		return errors.New("xgene: refresh multiplier outside [0.5, 4]")
	}
	m.dramRefresh = mult
	m.console.Printf("slimpro: dram refresh interval x%.2f", mult)
	return nil
}

// DRAMRefresh returns the refresh-interval multiplier.
func (m *Machine) DRAMRefresh() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dramRefresh
}

// --- thermal control (§3.1 pins the die at 43 °C via fan speed) ---

// SetFan sets fan duty in percent (0–100).
func (m *Machine) SetFan(percent float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAliveLocked(); err != nil {
		return err
	}
	if percent < 0 || percent > 100 {
		return errors.New("xgene: fan duty outside [0,100]")
	}
	m.fanPercent = percent
	return nil
}

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
	return m.runOnCore(core, spec, rng, nil)
}

// RunOnCoreAssessed is RunOnCore with the margin assessment supplied by the
// caller — the batch-engine hook. Fleet boards and ladder sweeps assess a
// (core, spec) pair once and replay the cached result across thousands of
// runs; outcomes are identical to RunOnCore as long as margins matches the
// board's current operating regime.
func (m *Machine) RunOnCoreAssessed(core int, spec *workload.Spec, rng *rand.Rand, margins silicon.Margins) (RunResult, error) {
	return m.runOnCore(core, spec, rng, &margins)
}

func (m *Machine) runOnCore(core int, spec *workload.Spec, rng *rand.Rand, assessed *silicon.Margins) (RunResult, error) {
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
	volt := m.pmdVoltages[pmd]
	bs := BatchState{
		Chip:  m.chip,
		Model: m.model,
		Prot:  m.protection,
		State: LadderState{SoC: m.socVoltage, Refresh: m.dramRefresh},
	}
	m.mu.Unlock()

	var margins silicon.Margins
	if assessed != nil {
		margins = *assessed
	} else {
		margins = m.Assess(core, spec, units.RegimeOf(freq))
	}
	// The run's draws are SampleCell's: the batch engine's contract holds
	// by construction.
	cell := SampleCell(rng, bs, bs.State, margins, volt)
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
		m.console.Printf("kernel: panic on core %d at %v/%v — system hang", core, volt, freq)
		res.SystemUp = false
		res.ExitCode = -1
		return res, nil
	case effects.AC:
		m.console.Printf("run: %s on core %d killed (signal)", spec.ID(), core)
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
	for pmd := 0; pmd < silicon.NumPMDs; pmd++ {
		fRel := m.pmdFrequency[pmd].GHz() / units.MaxFrequency.GHz()
		vRel := m.pmdVoltages[pmd].RelativeSquared()
		dynamic += pmdMaxDynamic * fRel * vRel
	}
	leak := 3.0 * m.chip.Corner().Leakage() * (m.pmdVoltage.Volts() / units.NominalPMD.Volts())
	soc := 4.0 * m.socVoltage.RelativeSquared()
	return dynamic + leak + soc
}

// EstimatePower returns the PMpro's board power estimate in watts.
func (m *Machine) EstimatePower() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.estimatePowerLocked()
}
