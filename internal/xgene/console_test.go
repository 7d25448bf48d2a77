package xgene

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
)

var update = flag.Bool("update", false, "rewrite the console session golden")

// consoleSession drives one board through every console writer: boot,
// the shared rail over its whole grid, every PMD clock, rejected writes,
// the SoC rail, DRAM refresh, protection and per-PMD rails, then a killed
// run and a system crash. It returns the whole retained stream.
func consoleSession(t *testing.T) []string {
	t.Helper()
	m := New(silicon.NewChip(silicon.TTT, 1))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for v := MaxPMDVoltage; v >= MinPMDVoltage; v -= units.VoltageStep {
		must(m.SetPMDVoltage(v))
	}
	for pmd := 0; pmd < silicon.NumPMDs; pmd++ {
		for f := units.MinFrequency; f <= units.MaxFrequency; f += units.FrequencyStep {
			must(m.SetPMDFrequency(pmd, f))
		}
	}
	for _, v := range []units.MilliVolts{MinPMDVoltage - units.VoltageStep, MaxPMDVoltage + units.VoltageStep, 903} {
		if err := m.SetPMDVoltage(v); !errors.Is(err, ErrBadVoltage) {
			t.Fatalf("SetPMDVoltage(%v) = %v, want ErrBadVoltage", v, err)
		}
	}
	if err := m.SetPMDFrequency(0, 350); !errors.Is(err, ErrBadFrequency) {
		t.Fatalf("SetPMDFrequency(0, 350MHz) = %v, want ErrBadFrequency", err)
	}
	must(m.SetSoCVoltage(900))
	must(m.SetDRAMRefresh(1.5))
	m.SetProtection(silicon.Protection{ECC: silicon.DECTED, AdaptiveClocking: true})
	m.SetProtection(silicon.Stock())
	must(m.SetDRAMRefresh(1))
	must(m.SetSoCVoltage(units.NominalSoC))
	m.EnablePerPMDRails()
	must(m.SetPMDRail(2, 905))
	must(m.SetPMDRail(2, MaxPMDVoltage))

	// Walk the rail down under load until a run is killed, then until the
	// system hangs: both leave their own line on the stream.
	spec := mustSpec(t, "bwaves/ref")
	rng := rand.New(rand.NewSource(5))
	killed := false
	for v := MaxPMDVoltage; v >= MinPMDVoltage && m.Responsive(); v -= units.VoltageStep {
		must(m.SetPMDVoltage(v))
		for i := 0; i < 20 && m.Responsive(); i++ {
			res, err := m.RunOnCore(0, spec, rng)
			must(err)
			if res.ExitCode == 134 {
				killed = true
			}
		}
		if !killed && !m.Responsive() {
			t.Fatalf("board hung at %v before any run was killed", v)
		}
	}
	if m.Responsive() {
		t.Fatal("board never hung")
	}
	return m.Console().Tail(512)
}

// TestConsoleSessionGolden pins every console line of a scripted session,
// text and order, against the stream the board wrote when each line was
// still formatted on the spot.
func TestConsoleSessionGolden(t *testing.T) {
	got := strings.Join(consoleSession(t), "\n") + "\n"
	path := filepath.Join("testdata", "console-session.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("console session differs from %s:\n--- got ---\n%s", path, got)
	}
	for _, marker := range []string{"xgene2: boot #1", "pmd3 clock -> 2400MHz", "killed (signal)", "system hang"} {
		if !strings.Contains(got, marker) {
			t.Errorf("session never wrote %q", marker)
		}
	}
}

// TestInternedLinesMatchSprintf writes every grid voltage and every valid
// (PMD, clock) pair and checks each line against the format the write
// used to pass to Printf.
func TestInternedLinesMatchSprintf(t *testing.T) {
	m := testMachine()
	last := func() string { return m.Console().Tail(1)[0] }
	n := 0
	for v := MinPMDVoltage; v <= MaxPMDVoltage; v += units.VoltageStep {
		if err := m.SetPMDVoltage(v); err != nil {
			t.Fatal(err)
		}
		if got, want := last(), fmt.Sprintf("slimpro: pmd rail -> %v", v); got != want {
			t.Errorf("rail %v: line %q, want %q", v, got, want)
		}
		n++
	}
	if n != 77 {
		t.Errorf("wrote %d grid voltages, want 77", n)
	}
	for pmd := 0; pmd < silicon.NumPMDs; pmd++ {
		for f := units.MinFrequency; f <= units.MaxFrequency; f += units.FrequencyStep {
			if err := m.SetPMDFrequency(pmd, f); err != nil {
				t.Fatal(err)
			}
			if got, want := last(), fmt.Sprintf("slimpro: pmd%d clock -> %v", pmd, f); got != want {
				t.Errorf("pmd%d %v: line %q, want %q", pmd, f, got, want)
			}
		}
	}
}

// TestBadRailAndClockWritesRejected: a write off the grid or out of range
// fails before any interned table is indexed, and leaves no line.
func TestBadRailAndClockWritesRejected(t *testing.T) {
	m := testMachine()
	before := m.Console().Tail(512)
	for _, v := range []units.MilliVolts{-5, 0, 595, 597, 601, 979, 985, 2000} {
		if err := m.SetPMDVoltage(v); !errors.Is(err, ErrBadVoltage) {
			t.Errorf("SetPMDVoltage(%v) = %v, want ErrBadVoltage", v, err)
		}
	}
	for _, c := range []struct {
		pmd int
		f   units.MegaHertz
	}{{0, 0}, {0, -300}, {0, 150}, {0, 301}, {0, 2700}, {3, 3000}} {
		if err := m.SetPMDFrequency(c.pmd, c.f); !errors.Is(err, ErrBadFrequency) {
			t.Errorf("SetPMDFrequency(%d, %v) = %v, want ErrBadFrequency", c.pmd, c.f, err)
		}
	}
	for _, pmd := range []int{-1, silicon.NumPMDs, 100} {
		if err := m.SetPMDFrequency(pmd, units.MaxFrequency); err == nil {
			t.Errorf("SetPMDFrequency(%d, %v) accepted a missing PMD", pmd, units.MaxFrequency)
		}
	}
	if after := m.Console().Tail(512); strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Errorf("rejected writes changed the console: %q", after[len(before):])
	}
}

// TestRailAndClockWritesDoNotAllocate: a bisection step's rail and clock
// writes append interned lines, so a pair of them allocates nothing
// beyond the occasional growth of the line buffer.
func TestRailAndClockWritesDoNotAllocate(t *testing.T) {
	m := testMachine()
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		v := MaxPMDVoltage - units.MilliVolts(i%77)*units.VoltageStep
		f := units.MinFrequency + units.MegaHertz(i%8)*units.FrequencyStep
		if err := m.SetPMDVoltage(v); err != nil {
			t.Fatal(err)
		}
		if err := m.SetPMDFrequency(i%silicon.NumPMDs, f); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("a rail and a clock write allocate %v times, want 0", allocs)
	}
}
