package experiments

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
)

// The paper-protocol Fig. 4 characterization is the expensive common
// input of many tests here, so it is computed once per test binary.
var (
	fig4Once sync.Once
	fig4Res  *Fig4Result
	fig4Err  error
)

// figure4 returns the shared Paper() Fig. 4 result; callers must treat it
// as read-only.
func figure4(t *testing.T) *Fig4Result {
	t.Helper()
	fig4Once.Do(func() { fig4Res, fig4Err = Figure4(Paper()) })
	if fig4Err != nil {
		t.Fatal(fig4Err)
	}
	return fig4Res
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{Runs: 0}.normalize()
	if o.Runs != 1 {
		t.Errorf("normalized runs = %d", o.Runs)
	}
	if Paper().Runs != 10 || Quick().Runs != 3 {
		t.Error("canned options wrong")
	}
}

// Figure 3 anchors: the paper's most-robust-core Vmin values (±1 grid step
// for the die jitter). DESIGN.md §5 lists the calibration table.
func TestFigure3Anchors(t *testing.T) {
	f := figure4(t)
	want := map[string]map[string]units.MilliVolts{
		"TTT": {"bwaves": 885, "cactusADM": 875, "dealII": 870, "gromacs": 865,
			"leslie3d": 880, "mcf": 860, "milc": 875, "namd": 865, "soplex": 870, "zeusmp": 875},
		"TFF": {"bwaves": 885, "mcf": 870},
		"TSS": {"bwaves": 900, "mcf": 870},
	}
	for chip, per := range want {
		for bench, v := range per {
			got, ok := f.RobustVmin(chip, bench)
			if !ok {
				t.Errorf("%s/%s: no Vmin", chip, bench)
				continue
			}
			if got < v-5 || got > v+5 {
				t.Errorf("%s/%s robust Vmin = %v, want %v±5", chip, bench, got, v)
			}
		}
	}
}

// §3.2: per-chip Vmin ranges — TTT 860–885, TFF 870–885, TSS 870–900 — and
// bwaves is the maximum on every chip.
func TestFigure3Ranges(t *testing.T) {
	f := figure4(t)
	ranges := map[string][2]units.MilliVolts{
		"TTT": {860, 885}, "TFF": {870, 885}, "TSS": {870, 900},
	}
	for chip, r := range ranges {
		lo, hi := units.MilliVolts(2000), units.MilliVolts(0)
		var maxBench string
		for _, bench := range f.Benchmarks {
			v, ok := f.RobustVmin(chip, bench)
			if !ok {
				t.Fatalf("%s/%s missing", chip, bench)
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi, maxBench = v, bench
			}
		}
		if lo < r[0]-5 || lo > r[0]+5 || hi < r[1]-5 || hi > r[1]+5 {
			t.Errorf("%s range = [%v, %v], want ≈[%v, %v]", chip, lo, hi, r[0], r[1])
		}
		if maxBench != "bwaves" {
			t.Errorf("%s max benchmark = %s, want bwaves", chip, maxBench)
		}
	}
}

// §3.3: PMD2 is the most robust PMD on all chips; TFF averages below TTT;
// TSS significantly above both.
func TestProcessVariationFindings(t *testing.T) {
	f := figure4(t)
	for _, chip := range f.Chips {
		for _, bench := range f.Benchmarks {
			pmd, ok := f.PMDVmin(chip, bench)
			if !ok {
				t.Fatalf("%s/%s missing PMD view", chip, bench)
			}
			for i := 0; i < silicon.NumPMDs; i++ {
				if pmd[i] < pmd[2] {
					t.Errorf("%s/%s: PMD%d (%v) more robust than PMD2 (%v)",
						chip, bench, i, pmd[i], pmd[2])
				}
			}
		}
	}
	avg := map[string]float64{}
	for _, chip := range f.Chips {
		v, ok := f.AverageVmin(chip)
		if !ok {
			t.Fatalf("no average for %s", chip)
		}
		avg[chip] = v
	}
	if avg["TFF"] >= avg["TTT"] {
		t.Errorf("TFF average %v not below TTT %v", avg["TFF"], avg["TTT"])
	}
	if avg["TSS"] < avg["TTT"]+5 {
		t.Errorf("TSS average %v not significantly above TTT %v", avg["TSS"], avg["TTT"])
	}
}

// §3.2: "the workload-to-workload variation remains the same across the 3
// chips of the same architecture" — the per-benchmark Vmin pattern must be
// strongly correlated between chips.
func TestWorkloadPatternConsistentAcrossChips(t *testing.T) {
	f := figure4(t)
	vec := func(chip string) []float64 {
		out := make([]float64, 0, len(f.Benchmarks))
		for _, bench := range f.Benchmarks {
			v, ok := f.RobustVmin(chip, bench)
			if !ok {
				t.Fatalf("%s/%s missing", chip, bench)
			}
			out = append(out, float64(v))
		}
		return out
	}
	corr := func(a, b []float64) float64 {
		n := float64(len(a))
		var sa, sb, saa, sbb, sab float64
		for i := range a {
			sa += a[i]
			sb += b[i]
			saa += a[i] * a[i]
			sbb += b[i] * b[i]
			sab += a[i] * b[i]
		}
		cov := sab/n - sa/n*sb/n
		va := saa/n - sa/n*sa/n
		vb := sbb/n - sb/n*sb/n
		return cov / math.Sqrt(va*vb)
	}
	// TFF's compressed stress span plus 5 mV quantization caps the
	// observable correlation a little below the idealized 1.0.
	ttt, tff, tss := vec("TTT"), vec("TFF"), vec("TSS")
	if c := corr(ttt, tff); c < 0.75 {
		t.Errorf("TTT/TFF workload pattern correlation = %.2f, want high", c)
	}
	if c := corr(ttt, tss); c < 0.75 {
		t.Errorf("TTT/TSS workload pattern correlation = %.2f, want high", c)
	}
}

// §3.3: core-to-core spread up to ≈3.6 % of nominal (35 mV).
func TestCoreToCoreSpread(t *testing.T) {
	f := figure4(t)
	maxSpread := units.MilliVolts(0)
	for _, chip := range f.Chips {
		for _, bench := range f.Benchmarks {
			rb, ok1 := f.RobustVmin(chip, bench)
			sv, ok2 := f.SensitiveVmin(chip, bench)
			if ok1 && ok2 && sv-rb > maxSpread {
				maxSpread = sv - rb
			}
		}
	}
	if maxSpread < 25 || maxSpread > 50 {
		t.Errorf("max core-to-core spread = %v, want ≈35 mV (3.6%%)", maxSpread)
	}
}

// leslie3d anchor (§5): robust PMD 880 mV, sensitive PMD 915 mV on TTT.
func TestLeslie3dPMDAnchor(t *testing.T) {
	f := figure4(t)
	pmd, ok := f.PMDVmin("TTT", "leslie3d")
	if !ok {
		t.Fatal("missing leslie3d")
	}
	best, worst := pmd[0], pmd[0]
	for _, v := range pmd[1:] {
		if v < best {
			best = v
		}
		if v > worst {
			worst = v
		}
	}
	if best < 875 || best > 890 {
		t.Errorf("leslie3d robust PMD = %v, want ≈880", best)
	}
	if worst < 910 || worst > 925 {
		t.Errorf("leslie3d sensitive PMD = %v, want ≈915", worst)
	}
}

func TestFigure5Shape(t *testing.T) {
	f, err := Figure5(Paper())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Voltages) == 0 {
		t.Fatal("no voltage rows")
	}
	for i := 1; i < len(f.Voltages); i++ {
		if f.Voltages[i] >= f.Voltages[i-1] {
			t.Fatal("voltages not descending")
		}
	}
	// Severity at the top row is 0 everywhere; core 0 reaches 16-level
	// severities somewhere; core 4 (robust) stays mild at voltages where
	// core 0 already fails hard.
	for c := 0; c < silicon.NumCores; c++ {
		if s := f.Severity[c][0]; s != 0 {
			t.Errorf("core %d top-row severity = %v", c, s)
		}
	}
	max0, max4 := 0.0, 0.0
	for i := range f.Voltages {
		max0 = math.Max(max0, f.Severity[0][i])
		if f.Severity[4][i] >= 0 {
			max4 = math.Max(max4, f.Severity[4][i])
		}
	}
	if max0 < 10 {
		t.Errorf("core 0 max severity = %v, want crash-level", max0)
	}
	// At each voltage, core 0's severity should (weakly) dominate core 4's
	// overall: compare the voltage where each first exceeds 4.
	first0, first4 := units.MilliVolts(0), units.MilliVolts(0)
	for i, v := range f.Voltages {
		if first0 == 0 && f.Severity[0][i] > 4 {
			first0 = v
		}
		if first4 == 0 && f.Severity[4][i] >= 0 && f.Severity[4][i] > 4 {
			first4 = v
		}
	}
	if first0 == 0 {
		t.Fatal("core 0 never exceeded severity 4")
	}
	if first4 != 0 && first4 > first0 {
		t.Errorf("robust core exceeded severity 4 at %v, above sensitive core's %v", first4, first0)
	}
}

func TestGuardbandsFromFig4(t *testing.T) {
	g, err := Guardbands(figure4(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Summaries) != 3 {
		t.Fatalf("got %d summaries", len(g.Summaries))
	}
	want := map[string]float64{"TTT": 0.184, "TFF": 0.184, "TSS": 0.157}
	for _, s := range g.Summaries {
		if w, ok := want[s.Chip]; ok {
			if math.Abs(s.MinSavings-w) > 0.02 {
				t.Errorf("%s min savings = %.3f, want ≈%.3f", s.Chip, s.MinSavings, w)
			}
		}
	}
}

func TestHalfSpeedExperiment(t *testing.T) {
	h, err := HalfSpeed(Paper())
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range h.Vmin {
		if v != 760 {
			t.Errorf("core %d Vmin = %v, want 760", c, v)
		}
	}
	if h.UnsafeSteps != 0 {
		t.Errorf("unsafe steps = %d, want 0", h.UnsafeSteps)
	}
	if math.Abs(h.Savings-0.699) > 0.005 {
		t.Errorf("half-speed savings = %.3f, want 0.699", h.Savings)
	}
}

func TestFigure9Shape(t *testing.T) {
	f, err := Figure9(Paper())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 6 {
		t.Fatalf("%d points, want 6", len(f.Points))
	}
	wantPerf := []float64{1, 1, 0.875, 0.75, 0.625, 0.5}
	for i, p := range f.Points {
		if math.Abs(p.Performance-wantPerf[i]) > 1e-9 {
			t.Errorf("point %d perf = %v, want %v", i, p.Performance, wantPerf[i])
		}
		if i > 0 && p.Power >= f.Points[i-1].Power {
			t.Errorf("power not decreasing at point %d", i)
		}
	}
	// First undervolt point: the sensitive PMD hosting bwaves dominates —
	// ≈915 mV, ≈12.8 % savings (paper).
	p1 := f.Points[1]
	if p1.Voltage < 905 || p1.Voltage > 925 {
		t.Errorf("first undervolt point = %v, want ≈915", p1.Voltage)
	}
	if s := 1 - p1.Power; s < 0.10 || s > 0.16 {
		t.Errorf("no-perf-loss savings = %.3f, want ≈0.128", s)
	}
	// 25 % performance loss point: ≈38.8 % savings (paper §5).
	p3 := f.Points[3]
	if s := 1 - p3.Power; s < 0.34 || s > 0.44 {
		t.Errorf("25%%-loss savings = %.3f, want ≈0.388", s)
	}
	// Final point: everything at 1.2 GHz / 760 mV → 69.9 %.
	p5 := f.Points[5]
	if p5.Voltage != 760 {
		t.Errorf("final voltage = %v", p5.Voltage)
	}
	if s := 1 - p5.Power; math.Abs(s-0.699) > 0.005 {
		t.Errorf("final savings = %.3f, want 0.699", s)
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf)
	RenderTable2(&buf)
	RenderTable3(&buf)
	RenderTable4(&buf)
	out := buf.String()
	for _, want := range []string{
		"X-Gene 2", "28 nm", "ARMv8", "SDC", "WSC", "16",
		"Errors detected and corrected",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q", want)
		}
	}

	buf.Reset()
	RenderFigure3(&buf, figure4(t))
	if !strings.Contains(buf.String(), "bwaves") || !strings.Contains(buf.String(), "TSS") {
		t.Errorf("figure 3 render incomplete:\n%s", buf.String())
	}

	buf.Reset()
	RenderFigure4(&buf, figure4(t))
	if !strings.Contains(buf.String(), "average Vmin") {
		t.Error("figure 4 render missing averages")
	}

	buf.Reset()
	g, err := Guardbands(figure4(t))
	if err != nil {
		t.Fatal(err)
	}
	RenderGuardbands(&buf, g)
	if !strings.Contains(buf.String(), "min savings") {
		t.Error("guardband render incomplete")
	}
}
