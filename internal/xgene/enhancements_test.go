package xgene

import (
	"math/rand"
	"testing"

	"xvolt/internal/silicon"
)

func TestProtectionDefaultStock(t *testing.T) {
	m := testMachine()
	if p := m.BatchState().Prot; p.ECC != silicon.SECDED || p.AdaptiveClocking {
		t.Errorf("default protection = %+v, want stock", p)
	}
}

// With DECTED protection the unsafe region's SDCs largely turn into
// corrected errors (§6 "stronger error protection").
func TestDECTEDOnMachine(t *testing.T) {
	count := func(p silicon.Protection) (sdc, ce int) {
		m := testMachine()
		m.SetProtection(p)
		spec := mustSpec(t, "bwaves/ref")
		rng := rand.New(rand.NewSource(11))
		if err := m.SetPMDVoltage(905); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if !m.Responsive() {
				m.Reset()
				m.SetProtection(p)
				if err := m.SetPMDVoltage(905); err != nil {
					t.Fatal(err)
				}
			}
			res, err := m.RunOnCore(0, spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.GroundTru.SDC {
				sdc++
			}
			if res.GroundTru.CE {
				ce++
			}
		}
		return
	}
	sdcStock, _ := count(silicon.Stock())
	sdcStrong, ceStrong := count(silicon.Protection{ECC: silicon.DECTED})
	if sdcStock < 20 {
		t.Fatalf("stock SDC count %d too small for comparison", sdcStock)
	}
	if sdcStrong >= sdcStock/2 {
		t.Errorf("DECTED SDCs %d not well below stock %d", sdcStrong, sdcStock)
	}
	if ceStrong == 0 {
		t.Error("DECTED produced no corrected errors")
	}
}

// Adaptive clocking lets the machine run clean one-or-two steps below the
// stock safe Vmin.
func TestAdaptiveClockingOnMachine(t *testing.T) {
	abnormal := func(p silicon.Protection) int {
		m := testMachine()
		m.SetProtection(p)
		spec := mustSpec(t, "leslie3d/ref")
		rng := rand.New(rand.NewSource(12))
		if err := m.SetPMDVoltage(905); err != nil { // just below core0's safe point
			t.Fatal(err)
		}
		n := 0
		for i := 0; i < 200; i++ {
			if !m.Responsive() {
				m.Reset()
				m.SetProtection(p)
				if err := m.SetPMDVoltage(905); err != nil {
					t.Fatal(err)
				}
			}
			res, err := m.RunOnCore(0, spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.GroundTru != (silicon.RunEffects{}) {
				n++
			}
		}
		return n
	}
	stock := abnormal(silicon.Stock())
	adaptive := abnormal(silicon.Protection{AdaptiveClocking: true})
	if stock < 20 {
		t.Fatalf("stock abnormal count %d too small", stock)
	}
	if adaptive >= stock/2 {
		t.Errorf("adaptive clocking abnormal %d not well below stock %d", adaptive, stock)
	}
}

// Reset keeps the fabricated protection (it is a hardware property, not
// a setting).
func TestResetKeepsProtection(t *testing.T) {
	m := testMachine()
	m.SetProtection(silicon.Protection{ECC: silicon.DECTED})
	m.Reset()
	if m.BatchState().Prot.ECC != silicon.DECTED {
		t.Error("protection lost across reset")
	}
}
