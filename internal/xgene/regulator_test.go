package xgene

import (
	"errors"
	"testing"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
)

// TestBadRailAndClockWritesRejected: a write off the grid or out of range
// fails and leaves the rail and the clocks where they were.
func TestBadRailAndClockWritesRejected(t *testing.T) {
	m := testMachine()
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
	if m.PMDVoltage() != units.NominalPMD {
		t.Errorf("rejected writes moved the rail to %v", m.PMDVoltage())
	}
	for pmd := 0; pmd < silicon.NumPMDs; pmd++ {
		if f := m.PMDFrequency(pmd); f != units.MaxFrequency {
			t.Errorf("rejected writes moved pmd%d's clock to %v", pmd, f)
		}
	}
}

// TestRailAndClockWritesDoNotAllocate: a bisection step's rail and clock
// writes allocate nothing.
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
