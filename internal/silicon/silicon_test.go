package silicon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xvolt/internal/units"
)

// specLike is a SPEC-CPU-like stress profile used across the tests.
var specLike = StressProfile{Pipeline: 0.9, FPU: 0.8, Memory: 0.5, Branch: 0.4, ILP: 0.8}

// memBound is an mcf-like profile.
var memBound = StressProfile{Pipeline: 0.5, FPU: 0.05, Memory: 0.95, Branch: 0.7, ILP: 0.3}

func TestCornerString(t *testing.T) {
	if TTT.String() != "TTT" || TFF.String() != "TFF" || TSS.String() != "TSS" {
		t.Error("corner names wrong")
	}
	if Corner(42).String() != "Corner(42)" {
		t.Error("unknown corner name wrong")
	}
}

func TestParseCorner(t *testing.T) {
	for _, c := range []Corner{TTT, TFF, TSS} {
		got, err := ParseCorner(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCorner(%v) = %v, %v", c, got, err)
		}
	}
	if _, err := ParseCorner("XYZ"); err == nil {
		t.Error("ParseCorner(XYZ) should fail")
	}
}

func TestPMDOf(t *testing.T) {
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for core, pmd := range want {
		if got := PMDOf(core); got != pmd {
			t.Errorf("PMDOf(%d) = %d, want %d", core, got, pmd)
		}
	}
}

func TestLeakageOrdering(t *testing.T) {
	if !(TFF.Leakage() > TTT.Leakage() && TTT.Leakage() > TSS.Leakage()) {
		t.Errorf("leakage ordering wrong: TFF=%v TTT=%v TSS=%v",
			TFF.Leakage(), TTT.Leakage(), TSS.Leakage())
	}
}

func TestNewChipDeterministic(t *testing.T) {
	a := NewChip(TTT, 7)
	b := NewChip(TTT, 7)
	for core := 0; core < NumCores; core++ {
		ma := a.Assess(core, specLike, 0, units.RegimeFull)
		mb := b.Assess(core, specLike, 0, units.RegimeFull)
		if ma != mb {
			t.Fatalf("core %d: chips with same seed disagree: %+v vs %+v", core, ma, mb)
		}
	}
	if a.Corner() != TTT || a.Seed() != 7 || a.Name != "TTT" {
		t.Errorf("chip metadata wrong: %+v", a)
	}
}

func TestNewChipPanicsOnUnknownCorner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown corner")
		}
	}()
	NewChip(Corner(99), 1)
}

func TestAssessPanicsOnBadCore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for bad core")
		}
	}()
	NewChip(TTT, 1).Assess(8, specLike, 0, units.RegimeFull)
}

func TestPaperChips(t *testing.T) {
	chips := PaperChips()
	if len(chips) != 3 {
		t.Fatalf("PaperChips returned %d chips", len(chips))
	}
	wantNames := []string{"TTT", "TFF", "TSS"}
	for i, c := range chips {
		if c.Name != wantNames[i] {
			t.Errorf("chip %d = %s, want %s", i, c.Name, wantNames[i])
		}
	}
}

// The paper's core-to-core finding: PMD2 (cores 4, 5) is the most robust
// PMD and PMD0 (cores 0, 1) the most sensitive, on all three chips.
func TestCoreToCoreVariation(t *testing.T) {
	for _, chip := range PaperChips() {
		pmdVmin := make([]units.MilliVolts, NumPMDs)
		for pmd := 0; pmd < NumPMDs; pmd++ {
			a := chip.Assess(2*pmd, specLike, 0, units.RegimeFull).SafeVmin
			b := chip.Assess(2*pmd+1, specLike, 0, units.RegimeFull).SafeVmin
			if b > a {
				a = b
			}
			pmdVmin[pmd] = a
		}
		for pmd := 0; pmd < NumPMDs; pmd++ {
			if pmdVmin[pmd] < pmdVmin[2] {
				t.Errorf("%s: PMD%d (%v) more robust than PMD2 (%v)",
					chip.Name, pmd, pmdVmin[pmd], pmdVmin[2])
			}
			if pmdVmin[pmd] > pmdVmin[0] {
				t.Errorf("%s: PMD%d (%v) more sensitive than PMD0 (%v)",
					chip.Name, pmd, pmdVmin[pmd], pmdVmin[0])
			}
		}
		// Spread ≈ 35 mV ≈ 3.6 % of nominal (paper §3.3).
		spread := pmdVmin[0] - pmdVmin[2]
		if spread < 15 || spread > 45 {
			t.Errorf("%s: core-to-core spread = %v, want ≈35 mV", chip.Name, spread)
		}
	}
}

// The paper's chip-to-chip finding: TSS needs significantly higher voltage
// than TTT and TFF.
func TestChipToChipVariation(t *testing.T) {
	chips := PaperChips()
	avg := func(c *Chip) float64 {
		s := 0.0
		for core := 0; core < NumCores; core++ {
			s += float64(c.Assess(core, specLike, 0, units.RegimeFull).SafeVmin)
		}
		return s / NumCores
	}
	ttt, tff, tss := avg(chips[0]), avg(chips[1]), avg(chips[2])
	if tss <= ttt+5 {
		t.Errorf("TSS avg Vmin %v not significantly above TTT %v", tss, ttt)
	}
	if tff >= ttt {
		t.Errorf("TFF avg Vmin %v not below TTT %v", tff, ttt)
	}
}

// At the half-speed regime every core runs safely at the corner floor
// (760 mV on TTT) with no unsafe region (paper §3.2).
func TestHalfRegime(t *testing.T) {
	chip := NewChip(TTT, 1)
	for core := 0; core < NumCores; core++ {
		for _, p := range []StressProfile{specLike, memBound, {}} {
			m := chip.Assess(core, p, 0.05, units.RegimeHalf)
			if m.SafeVmin != 760 {
				t.Errorf("core %d: half-speed SafeVmin = %v, want 760mV", core, m.SafeVmin)
			}
			if w := m.SafeVmin - m.CrashVmax; w != units.VoltageStep {
				t.Errorf("core %d: half-speed unsafe width = %v, want one step", core, w)
			}
		}
	}
}

func TestFullRegimeMarginsShape(t *testing.T) {
	chip := NewChip(TTT, 1)
	m := chip.Assess(0, specLike, 0, units.RegimeFull)
	if !m.SafeVmin.OnGrid() || !m.CrashVmax.OnGrid() {
		t.Errorf("margins off grid: %+v", m)
	}
	if m.CrashVmax >= m.SafeVmin {
		t.Errorf("crash %v >= safe %v", m.CrashVmax, m.SafeVmin)
	}
	if m.SafeVmin < 840 || m.SafeVmin > 940 {
		t.Errorf("SafeVmin = %v, outside plausible SPEC range", m.SafeVmin)
	}
	if float64(m.SafeVmin) < m.LogicVmin {
		t.Errorf("snapped SafeVmin %v below physical threshold %v", m.SafeVmin, m.LogicVmin)
	}
}

// Higher stress (via idio) must never lower the safe Vmin.
func TestSafeVminMonotoneInStress(t *testing.T) {
	chip := NewChip(TTT, 1)
	prop := func(rawA, rawB uint8, core uint8) bool {
		a := float64(rawA) / 255 * 0.4
		b := float64(rawB) / 255 * 0.4
		if a > b {
			a, b = b, a
		}
		c := int(core) % NumCores
		ma := chip.Assess(c, specLike, a, units.RegimeFull)
		mb := chip.Assess(c, specLike, b, units.RegimeFull)
		return mb.SafeVmin >= ma.SafeVmin
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// A pure-SRAM workload's safe point is set by the array floor, far below
// where pipeline-heavy workloads fail (paper §3.4 self-test finding).
func TestSRAMFloorDominatesForCacheStress(t *testing.T) {
	chip := NewChip(TTT, 1)
	cache := StressProfile{Pipeline: 0.05, Memory: 1.0, Branch: 0.2, ILP: 0.2}
	alu := StressProfile{Pipeline: 1.0, FPU: 0.3, Memory: 0.05, Branch: 0.3, ILP: 0.9}
	mCache := chip.Assess(4, cache, -0.40, units.RegimeFull)
	mALU := chip.Assess(4, alu, 0.05, units.RegimeFull)
	if mCache.SafeVmin >= mALU.SafeVmin-30 {
		t.Errorf("cache-stress SafeVmin %v not far below ALU %v", mCache.SafeVmin, mALU.SafeVmin)
	}
	if mCache.SRAMVmin < mCache.LogicVmin {
		t.Errorf("cache stress not SRAM-limited: sram %v logic %v", mCache.SRAMVmin, mCache.LogicVmin)
	}
}

func TestSampleRunCleanAboveSafe(t *testing.T) {
	chip := NewChip(TTT, 1)
	m := chip.Assess(0, specLike, 0, units.RegimeFull)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		for _, model := range []Model{XGene, Itanium} {
			e := SampleRun(rng, m, m.SafeVmin, model)
			if !e.Clean() {
				t.Fatalf("model %v: effect at SafeVmin: %+v", model, e)
			}
			e = SampleRun(rng, m, m.SafeVmin+20, model)
			if !e.Clean() {
				t.Fatalf("model %v: effect above SafeVmin: %+v", model, e)
			}
		}
	}
}

func TestSampleRunCrashesDeepBelow(t *testing.T) {
	chip := NewChip(TTT, 1)
	m := chip.Assess(0, specLike, 0, units.RegimeFull)
	rng := rand.New(rand.NewSource(2))
	crashes := 0
	const n = 100
	for i := 0; i < n; i++ {
		e := SampleRun(rng, m, m.CrashVmax-45, XGene)
		if e.SC {
			crashes++
		}
	}
	if crashes < n*9/10 {
		t.Errorf("only %d/%d runs crashed far below CrashVmax", crashes, n)
	}
}

// firstEffect sweeps downward and reports which effect class appears first.
func firstEffect(t *testing.T, m Margins, model Model) string {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	for v := m.SafeVmin - units.VoltageStep; v > m.SafeVmin-80; v -= units.VoltageStep {
		counts := map[string]int{}
		for i := 0; i < 400; i++ {
			e := SampleRun(rng, m, v, model)
			if e.SDC {
				counts["SDC"]++
			}
			if e.CE {
				counts["CE"]++
			}
			if e.UE {
				counts["UE"]++
			}
			if e.AC {
				counts["AC"]++
			}
			if e.SC {
				counts["SC"]++
			}
		}
		best, bestN := "", 0
		for k, n := range counts {
			if n > bestN {
				best, bestN = k, n
			}
		}
		if bestN > 8 { // ignore trace amounts
			return best
		}
	}
	return ""
}

// The central §3.4 finding: on the X-Gene model the first abnormal behavior
// on the way down is the SDC, while the Itanium model shows corrected
// errors first.
func TestFailureOrderingXGeneVsItanium(t *testing.T) {
	chip := NewChip(TTT, 1)
	m := chip.Assess(0, specLike, 0, units.RegimeFull)
	if got := firstEffect(t, m, XGene); got != "SDC" {
		t.Errorf("X-Gene first effect = %q, want SDC", got)
	}
	if got := firstEffect(t, m, Itanium); got != "CE" {
		t.Errorf("Itanium first effect = %q, want CE", got)
	}
}

// On the Itanium model there is a usable band where corrected errors occur
// without any SDC/crash — the ECC-guided speculation opportunity of
// refs [9, 10].
func TestItaniumHasCEOnlyBand(t *testing.T) {
	chip := NewChip(TTT, 1)
	m := chip.Assess(0, specLike, 0, units.RegimeFull)
	rng := rand.New(rand.NewSource(4))
	v := m.SafeVmin - 2*units.VoltageStep
	ce, bad := 0, 0
	for i := 0; i < 500; i++ {
		e := SampleRun(rng, m, v, Itanium)
		if e.CE {
			ce++
		}
		if e.SDC || e.SC || e.AC || e.UE {
			bad++
		}
	}
	if ce < 100 {
		t.Errorf("Itanium band has too few CEs: %d/500", ce)
	}
	if bad > 25 {
		t.Errorf("Itanium CE band polluted with %d severe effects", bad)
	}
}

func TestRunEffectsClean(t *testing.T) {
	if !(RunEffects{}).Clean() {
		t.Error("zero RunEffects not clean")
	}
	for _, e := range []RunEffects{
		{SDC: true}, {CE: true}, {UE: true}, {AC: true}, {SC: true},
	} {
		if e.Clean() {
			t.Errorf("%+v reported clean", e)
		}
	}
}

func TestModelString(t *testing.T) {
	if XGene.String() != "xgene" || Itanium.String() != "itanium" {
		t.Error("model names wrong")
	}
}

func TestVisibleRange(t *testing.T) {
	zero := StressProfile{}
	if v := zero.Visible(); v < 0.5 || v > 0.6 {
		t.Errorf("idle Visible = %v", v)
	}
	full := StressProfile{Pipeline: 1, FPU: 1, Branch: 1, ILP: 1}
	if v := full.Visible(); v <= zero.Visible() {
		t.Errorf("full stress Visible %v not above idle %v", v, zero.Visible())
	}
	mem := StressProfile{Memory: 1}
	if v := mem.Visible(); v >= zero.Visible() {
		t.Errorf("memory-bound Visible %v not below idle %v", v, zero.Visible())
	}
}

// Property: unsafe width grows with pipeline stress and stays in [8, 30].
func TestUnsafeWidthProperty(t *testing.T) {
	prop := func(p, f uint8) bool {
		w := unsafeWidth(StressProfile{Pipeline: float64(p) / 255, FPU: float64(f) / 255})
		if w < 8 || w > 30 {
			return false
		}
		w2 := unsafeWidth(StressProfile{Pipeline: 1, FPU: 1})
		return w2 >= w
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Deep in the crash region the sampler must never report a "clean" SDC-free
// success with high probability — guard against silent wrap-arounds.
func TestSampleRunDepthSanity(t *testing.T) {
	chip := NewChip(TSS, 3)
	m := chip.Assess(1, memBound, 0, units.RegimeFull)
	rng := rand.New(rand.NewSource(5))
	clean := 0
	for i := 0; i < 200; i++ {
		if SampleRun(rng, m, m.CrashVmax-40, XGene).Clean() {
			clean++
		}
	}
	if clean > 4 {
		t.Errorf("%d/200 clean runs 40mV below crash voltage", clean)
	}
}
