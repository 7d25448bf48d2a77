// Repository-level benchmarks: one per table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its modules). Every benchmark
// regenerates its artifact from the simulated platform and reports the
// headline measured numbers via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction run. Campaign repetitions are reduced from
// the paper's 10 to 3 where noted to keep the run affordable; the cmd/
// xvolt-report tool uses the full protocol.
package xvolt

import (
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"xvolt/internal/core"
	"xvolt/internal/energy"
	"xvolt/internal/experiments"
	"xvolt/internal/selftest"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// benchOpts is the reduced-cost protocol used by the heavy benchmarks.
var benchOpts = experiments.Options{Runs: 3, Seed: 1}

// BenchmarkTable2Parameters regenerates Table 2 (board parameters).
func BenchmarkTable2Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RenderTable2(io.Discard)
	}
}

// BenchmarkTable3Classification exercises the Table 3 classifier over a
// synthetic stream of run records.
func BenchmarkTable3Classification(b *testing.B) {
	recs := []core.RunRecord{
		{},
		{OutputMismatch: true},
		{ExitCode: 134},
		{DeltaCE: 12, DeltaUE: 1},
		{SystemCrashed: true, DeltaCE: 4},
	}
	for i := 0; i < b.N; i++ {
		for _, r := range recs {
			if r.Classify().Clean() && r.SystemCrashed {
				b.Fatal("classifier broken")
			}
		}
	}
}

// BenchmarkTable4Severity evaluates the Table 4 severity function.
func BenchmarkTable4Severity(b *testing.B) {
	t := core.Tally{N: 10, SDC: 2, CE: 5, UE: 1, AC: 1, SC: 1}
	acc := 0.0
	for i := 0; i < b.N; i++ {
		acc += t.Severity(core.PaperWeights)
	}
	if acc < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkFigure3Vmin regenerates Fig. 3: most-robust-core Vmin for the
// ten benchmarks on the three chips.
func BenchmarkFigure3Vmin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := f.RobustVmin("TTT", "bwaves"); ok {
			b.ReportMetric(float64(v), "bwaves-TTT-mV")
		}
		if v, ok := f.RobustVmin("TSS", "bwaves"); ok {
			b.ReportMetric(float64(v), "bwaves-TSS-mV")
		}
	}
}

// BenchmarkFigure4Characterization regenerates the full Fig. 4 dataset and
// reports the per-chip average Vmin (the figure's green line).
func BenchmarkFigure4Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, chip := range f.Chips {
			if avg, ok := f.AverageVmin(chip); ok {
				b.ReportMetric(avg, chip+"-avg-mV")
			}
		}
	}
}

// BenchmarkFigure4Parallel times the Fig. 4 workload on the parallel
// campaign engine and reports its speedup over the single-worker path
// (results are identical by the per-campaign seeding guarantee; only
// wall clock differs). The speedup compares two untimed cold passes, each
// after flushing the campaign memo, so it measures worker counts rather
// than memo lookups. The timed loop that follows replays the memo the
// parallel pass filled.
func BenchmarkFigure4Parallel(b *testing.B) {
	coldPass := func(opts experiments.Options) time.Duration {
		core.FlushCampaignCache()
		start := time.Now()
		if _, err := experiments.Figure4(opts); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	serialOpts := benchOpts
	serialOpts.Parallelism = 1
	serial := coldPass(serialOpts)
	par := coldPass(benchOpts)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(serial.Seconds()/par.Seconds(), "speedup-x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkFigure5SeverityMap regenerates the bwaves-on-TTT severity map.
func BenchmarkFigure5SeverityMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure5(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		max := 0.0
		for c := 0; c < silicon.NumCores; c++ {
			for _, s := range f.Severity[c] {
				if s > max {
					max = s
				}
			}
		}
		b.ReportMetric(max, "max-severity")
	}
}

// predictionBench shares the §4 flow across the three case benchmarks.
func predictionBench(b *testing.B, pick func(*experiments.PredictionResult) (r2, rmse, naive float64)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		p, err := experiments.Prediction(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		r2, rmse, naive := pick(p)
		b.ReportMetric(r2, "R2")
		b.ReportMetric(rmse, "RMSE")
		b.ReportMetric(naive, "naive-RMSE")
	}
}

// BenchmarkCase1VminPrediction regenerates §4.3.1 (paper: R²≈0, RMSE≈5 mV,
// naïve equally good).
func BenchmarkCase1VminPrediction(b *testing.B) {
	predictionBench(b, func(p *experiments.PredictionResult) (float64, float64, float64) {
		return p.Case1.R2, p.Case1.RMSE, p.Case1.NaiveRMSE
	})
}

// BenchmarkFigure7SeverityPrediction regenerates the sensitive-core
// severity model of Fig. 7 (paper: R² 0.92, RMSE 2.8 vs naïve 6.4).
func BenchmarkFigure7SeverityPrediction(b *testing.B) {
	predictionBench(b, func(p *experiments.PredictionResult) (float64, float64, float64) {
		return p.Case2.R2, p.Case2.RMSE, p.Case2.NaiveRMSE
	})
}

// BenchmarkFigure8SeverityPrediction regenerates the robust-core severity
// model of Fig. 8 (paper: R² 0.91, RMSE 2.65 vs naïve 6.9).
func BenchmarkFigure8SeverityPrediction(b *testing.B) {
	predictionBench(b, func(p *experiments.PredictionResult) (float64, float64, float64) {
		return p.Case3.R2, p.Case3.RMSE, p.Case3.NaiveRMSE
	})
}

// BenchmarkFigure9Tradeoff regenerates the §5 trade-off curve and reports
// the paper's two headline savings.
func BenchmarkFigure9Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure9(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((1-f.Points[1].Power)*100, "no-loss-savings-%")
		b.ReportMetric((1-f.Points[3].Power)*100, "25%-loss-savings-%")
		b.ReportMetric((1-f.Points[5].Power)*100, "50%-loss-savings-%")
	}
}

// BenchmarkSection32Guardbands regenerates the §3.2 per-chip guardband
// numbers (TTT/TFF ≥18.4 %, TSS 15.7 %).
func BenchmarkSection32Guardbands(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		g, err := experiments.Guardbands(f)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range g.Summaries {
			b.ReportMetric(s.MinSavings*100, s.Chip+"-min-savings-%")
		}
	}
}

// BenchmarkSection32HalfSpeed regenerates the 1.2 GHz study (760 mV on all
// cores, 69.9 % power saving).
func BenchmarkSection32HalfSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := experiments.HalfSpeed(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(h.Vmin[0]), "vmin-mV")
		b.ReportMetric(h.Savings*100, "savings-%")
	}
}

// BenchmarkSection34SelfTests regenerates the component localization
// (cache arrays survive far below the ALU/FPU timing paths).
func BenchmarkSection34SelfTests(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := xgene.New(silicon.NewChip(silicon.TTT, 1))
		findings, err := selftest.Localize(m, 4, benchOpts.Runs)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range findings {
			b.ReportMetric(float64(f.SafeVmin), f.Test+"-mV")
		}
	}
}

// --- micro-benchmarks of the core building blocks ---

// BenchmarkKernelRun measures one bwaves kernel execution (the unit of
// campaign cost).
func BenchmarkKernelRun(b *testing.B) {
	spec, err := workload.Lookup("bwaves/ref")
	if err != nil {
		b.Fatal(err)
	}
	var sink uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink ^= spec.Run(workload.Nop{})
	}
	_ = sink
}

// BenchmarkMachineRun measures one full machine-mediated run at nominal.
func BenchmarkMachineRun(b *testing.B) {
	m := xgene.New(silicon.NewChip(silicon.TTT, 1))
	spec, err := workload.Lookup("mcf/ref")
	if err != nil {
		b.Fatal(err)
	}
	rng := newBenchRand()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunOnCore(i%silicon.NumCores, spec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTradeoffCurve measures the Fig. 9 math alone (no campaigns).
func BenchmarkTradeoffCurve(b *testing.B) {
	reqs := []energy.PMDRequirement{
		{PMD: 0, FullSpeed: 915, HalfSpeed: 760},
		{PMD: 1, FullSpeed: 900, HalfSpeed: 760},
		{PMD: 2, FullSpeed: 875, HalfSpeed: 760},
		{PMD: 3, FullSpeed: 885, HalfSpeed: 760},
	}
	for i := 0; i < b.N; i++ {
		if _, err := energy.TradeoffCurve(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssess measures the silicon margin assessment.
func BenchmarkAssess(b *testing.B) {
	chip := silicon.NewChip(silicon.TTT, 1)
	spec, err := workload.Lookup("leslie3d/ref")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		chip.Assess(i%silicon.NumCores, spec.Profile, spec.Idio(), units.RegimeFull)
	}
}

// newBenchRand gives machine benchmarks a deterministic RNG.
func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(1)) }
