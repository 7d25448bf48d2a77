package units

import (
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if NominalPMD != 980 {
		t.Errorf("NominalPMD = %v, want 980", NominalPMD)
	}
	if NominalSoC != 950 {
		t.Errorf("NominalSoC = %v, want 950", NominalSoC)
	}
	if VoltageStep != 5 {
		t.Errorf("VoltageStep = %v, want 5", VoltageStep)
	}
	if MaxFrequency != 2400 || MinFrequency != 300 || FrequencyStep != 300 {
		t.Errorf("frequency grid = [%v,%v] step %v", MinFrequency, MaxFrequency, FrequencyStep)
	}
}

func TestStrings(t *testing.T) {
	if got := MilliVolts(915).String(); got != "915mV" {
		t.Errorf("String() = %q", got)
	}
	if got := MegaHertz(2400).String(); got != "2400MHz" {
		t.Errorf("String() = %q", got)
	}
	if got := Celsius(43).String(); got != "43.0C" {
		t.Errorf("String() = %q", got)
	}
	if got := RegimeFull.String(); got != "full-speed" {
		t.Errorf("RegimeFull.String() = %q", got)
	}
	if got := RegimeHalf.String(); got != "half-speed" {
		t.Errorf("RegimeHalf.String() = %q", got)
	}
}

func TestConversions(t *testing.T) {
	if got := MilliVolts(980).Volts(); got != 0.98 {
		t.Errorf("Volts() = %v", got)
	}
	if got := MegaHertz(2400).GHz(); got != 2.4 {
		t.Errorf("GHz() = %v", got)
	}
}

func TestOnGridSnap(t *testing.T) {
	cases := []struct {
		v        MilliVolts
		onGrid   bool
		down, up MilliVolts
	}{
		{980, true, 980, 980},
		{978, false, 975, 980},
		{976, false, 975, 980},
		{975, true, 975, 975},
		{0, true, 0, 0},
		{3, false, 0, 5},
	}
	for _, c := range cases {
		if got := c.v.OnGrid(); got != c.onGrid {
			t.Errorf("%v.OnGrid() = %v", c.v, got)
		}
		if got := c.v.SnapDown(); got != c.down {
			t.Errorf("%v.SnapDown() = %v, want %v", c.v, got, c.down)
		}
		if got := c.v.SnapUp(); got != c.up {
			t.Errorf("%v.SnapUp() = %v, want %v", c.v, got, c.up)
		}
	}
}

func TestSnapNegative(t *testing.T) {
	if got := MilliVolts(-3).SnapDown(); got != -5 {
		t.Errorf("SnapDown(-3) = %v, want -5", got)
	}
	if got := MilliVolts(-5).SnapDown(); got != -5 {
		t.Errorf("SnapDown(-5) = %v, want -5", got)
	}
	if got := MilliVolts(-3).SnapUp(); got != 0 {
		t.Errorf("SnapUp(-3) = %v, want 0", got)
	}
}

func TestGuardbandFraction(t *testing.T) {
	got := MilliVolts(880).GuardbandFraction()
	want := 100.0 / 980.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("GuardbandFraction = %v, want %v", got, want)
	}
}

// TestRelativeSquaredAnchors checks the paper's §3.2/§5 energy numbers:
// 880 mV ⇒ 19.4 % savings, 885 ⇒ 18.4 %, 900 ⇒ 15.7 %, 915 ⇒ 12.8 %.
func TestRelativeSquaredAnchors(t *testing.T) {
	cases := []struct {
		v       MilliVolts
		savings float64 // percent
	}{
		{880, 19.4},
		{885, 18.4},
		{900, 15.7},
		{915, 12.8},
	}
	for _, c := range cases {
		got := (1 - c.v.RelativeSquared()) * 100
		if got < c.savings-0.15 || got > c.savings+0.15 {
			t.Errorf("savings at %v = %.2f%%, want ≈%.1f%%", c.v, got, c.savings)
		}
	}
}

func TestValidFrequency(t *testing.T) {
	for f := MegaHertz(300); f <= 2400; f += 300 {
		if !ValidFrequency(f) {
			t.Errorf("ValidFrequency(%v) = false", f)
		}
	}
	for _, f := range []MegaHertz{0, 150, 250, 2500, 2700, -300, 1000} {
		if ValidFrequency(f) {
			t.Errorf("ValidFrequency(%v) = true", f)
		}
	}
}

func TestRegimeOf(t *testing.T) {
	cases := []struct {
		f MegaHertz
		r MarginRegime
	}{
		{2400, RegimeFull}, {2100, RegimeFull}, {1500, RegimeFull},
		{1200, RegimeHalf}, {900, RegimeHalf}, {300, RegimeHalf},
	}
	for _, c := range cases {
		if got := RegimeOf(c.f); got != c.r {
			t.Errorf("RegimeOf(%v) = %v, want %v", c.f, got, c.r)
		}
	}
}

func TestClampVoltage(t *testing.T) {
	if got := ClampVoltage(1000, 700, 980); got != 980 {
		t.Errorf("clamp high = %v", got)
	}
	if got := ClampVoltage(600, 700, 980); got != 700 {
		t.Errorf("clamp low = %v", got)
	}
	if got := ClampVoltage(800, 700, 980); got != 800 {
		t.Errorf("clamp mid = %v", got)
	}
}

// Property: SnapDown lands on grid, never increases, moves < one step.
func TestSnapDownProperties(t *testing.T) {
	prop := func(raw int16) bool {
		v := MilliVolts(raw)
		d := v.SnapDown()
		return d.OnGrid() && d <= v && v-d < VoltageStep
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: SnapUp lands on grid, never decreases, moves < one step.
func TestSnapUpProperties(t *testing.T) {
	prop := func(raw int16) bool {
		v := MilliVolts(raw)
		u := v.SnapUp()
		return u.OnGrid() && u >= v && u-v < VoltageStep
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
