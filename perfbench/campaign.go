package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"xvolt/internal/analysis"
	"xvolt/internal/core"
	"xvolt/internal/experiments"
	"xvolt/internal/predict"
	"xvolt/internal/selftest"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// campaign: regenerate the whole xvolt-report evaluation (every artifact,
// 10 runs per voltage step) for a fresh seed per unit and render it to a
// buffer. The batch ladder engine, the sequential Framework per-run path
// and regress/predict dominate; no fleet code runs.
type campaign struct {
	o       options
	reports int
	warmups int // warm-up seeds drawn so far

	sums    []string // per-unit report digests of the untraced window
	records int      // Fig. 4 run records of the untraced window
}

// campaignReportsPerSecond is the nominal report rate on the reference
// 2-vCPU Intel Xeon VM; it only sizes the fixed report count.
const campaignReportsPerSecond = 2.5

// runsPerStep is the paper's protocol and xvolt-report's default.
const runsPerStep = 10

func newCampaign(o options) *campaign {
	return &campaign{o: o, reports: sizeOf(o.seconds, campaignReportsPerSecond)}
}

func (w *campaign) sizes() []kv {
	return []kv{{"reports", w.reports}, {"runs_per_step", runsPerStep}, {"artifacts", "all (xvolt-report default)"}}
}

// unitSeed is the fresh report seed of timed unit u.
func (w *campaign) unitSeed(u int) int64 {
	return core.CampaignSeed(w.o.seed, "perfbench", "campaign", "report", u)
}

func (w *campaign) lazy() { primeGoldens(workload.All()) }

// setUp renders one untimed warm-up report at a seed no timed unit uses.
func (w *campaign) setUp() error {
	w.warmups++
	seed := core.CampaignSeed(w.o.seed, "perfbench", "campaign", "warm-up", w.warmups)
	core.FlushCampaignCache()
	_, err := report(context.Background(), nil, experiments.Options{Runs: runsPerStep, Seed: seed}, io.Discard)
	core.FlushCampaignCache()
	return err
}

func (w *campaign) tearDown() { core.FlushCampaignCache() }

func (w *campaign) run(ctx context.Context, win *window) error {
	bufs := make([]bytes.Buffer, w.reports)
	records := 0
	ctx = win.begin(ctx)
	for u := 0; u < w.reports; u++ {
		uctx, us := win.tr.StartSpan(ctx, "bench.unit")
		t0 := time.Now()
		n, err := report(uctx, win.tr, experiments.Options{Runs: runsPerStep, Seed: w.unitSeed(u)}, &bufs[u])
		win.lat = append(win.lat, msSince(t0))
		// The campaign memo never carries a hit into the next unit.
		core.FlushCampaignCache()
		us.End()
		if err != nil {
			win.fail("report %d: %v", u, err)
			continue
		}
		records += n
		win.ops++
		win.progress(win.ops)
	}
	win.end()
	win.tries = w.reports
	if win.tr != nil {
		return nil
	}
	w.sums = make([]string, w.reports)
	total := 0
	for u := range bufs {
		w.sums[u] = digest(bufs[u].String())
		total += bufs[u].Len()
	}
	w.records = records
	win.counts = []kv{{"reports", win.ops}, {"fig4_records", records}, {"report_bytes", total},
		{"reports_sha256", digest(strings.Join(w.sums, ""))}}
	return nil
}

// checks: every timed report's bytes must equal an untimed rendering of
// the same seed on a single campaign worker (two checks run at a time),
// and the first unit's must equal what the xvolt-report command prints
// for its seed, which ties report, a copy of that command's body, to the
// command.
func (w *campaign) checks(ctx context.Context) (int, []string) {
	var mu sync.Mutex
	var fails []string
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				var buf bytes.Buffer
				_, err := report(ctx, nil, experiments.Options{Runs: runsPerStep, Seed: w.unitSeed(u), Parallelism: 1}, &buf)
				core.FlushCampaignCache()
				if err == nil && digest(buf.String()) == w.sums[u] {
					continue
				}
				mu.Lock()
				fails = append(fails, fmt.Sprintf("report %d differs from its sequential rendering (err %v)", u, err))
				mu.Unlock()
			}
		}()
	}
	for u := range w.sums {
		next <- u
	}
	close(next)
	wg.Wait()
	if err := w.matchCommand(ctx, 0); err != nil {
		fails = append(fails, err.Error())
	}
	return len(w.sums) + 1, fails
}

// matchCommand runs the xvolt-report binary built beside the benchmark
// for unit u's seed and compares its output with the timed report.
func (w *campaign) matchCommand(ctx context.Context, u int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, filepath.Join(filepath.Dir(exe), "xvolt-report"),
		"-seed", strconv.FormatInt(w.unitSeed(u), 10), "-runs", strconv.Itoa(runsPerStep))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("xvolt-report for unit %d: %v: %s", u, err, bytes.TrimSpace(stderr.Bytes()))
	}
	if digest(string(out)) != w.sums[u] {
		return fmt.Errorf("report %d differs from xvolt-report -seed %d", u, w.unitSeed(u))
	}
	return nil
}

func (w *campaign) layers(ctx context.Context, plain, traced *window, a *breakdown) (map[string]float64, []string) {
	units := float64(traced.ops)
	if units == 0 {
		return map[string]float64{}, nil
	}
	perUnit := func(name string) float64 {
		if s := a.stat(name); s != nil {
			return ms(s.dur) / units
		}
		return 0
	}
	out := map[string]float64{
		"experiments.fig4_ms":       perUnit("experiments.fig4"),
		"experiments.prediction_ms": perUnit("experiments.prediction"),
		"experiments.scheduling_ms": perUnit("experiments.scheduling"),
		"core.records_per_report":   float64(w.records) / float64(plain.ops),
	}
	var rest float64
	for name := range a.stats {
		switch name {
		case "experiments.fig4", "experiments.prediction", "experiments.scheduling":
		default:
			if strings.HasPrefix(name, "experiments.") {
				rest += perUnit(name)
			}
		}
	}
	out["experiments.rest_ms"] = rest
	pipe, fails := w.pipelineProbe(ctx, traced.tr, 3)
	out["predict.pipeline_ms"] = pipe
	return out, fails
}

// pipelineProbe times predict.Pipeline.Run on the three §4 datasets of
// the first n unit seeds, built from the same public steps
// experiments.Prediction takes, and checks that the probe reproduces
// experiments.Prediction's rendering.
func (w *campaign) pipelineProbe(ctx context.Context, tr *trace.Tracer, n int) (float64, []string) {
	var fails []string
	var total time.Duration
	for u := 0; u < n; u++ {
		opt := experiments.Options{Runs: runsPerStep, Seed: w.unitSeed(u)}
		ladder := core.NewLadderRunner(func() *xgene.Machine { return xgene.New(silicon.NewChip(silicon.TTT, 1)) })
		cfg := core.DefaultConfig(workload.PredictionSuite(), []int{0, 4})
		cfg.Runs, cfg.Seed = opt.Runs, opt.Seed
		results, err := ladder.Characterize(cfg)
		core.FlushCampaignCache()
		if err != nil {
			fails = append(fails, fmt.Sprintf("pipeline probe: %v", err))
			continue
		}
		profiles := predict.CollectProfiles(workload.PredictionSuite(), opt.Seed+6)
		d1, err1 := predict.BuildVminDataset(results, profiles, 0)
		d2, err2 := predict.BuildSeverityDataset(results, profiles, 0, core.PaperWeights, 100)
		d3, err3 := predict.BuildSeverityDataset(results, profiles, 4, core.PaperWeights, 90)
		if err := firstErr(err1, err2, err3); err != nil {
			fails = append(fails, fmt.Sprintf("pipeline probe datasets: %v", err))
			continue
		}
		pipe := predict.DefaultPipeline()
		pipe.Seed = opt.Seed
		var got experiments.PredictionResult
		_, span := tr.StartSpan(ctx, "predict.pipeline")
		t0 := time.Now()
		got.Case1, err1 = pipe.Run(d1)
		got.Case2, err2 = pipe.Run(d2)
		got.Case3, err3 = pipe.Run(d3)
		total += time.Since(t0)
		span.End()
		if err := firstErr(err1, err2, err3); err != nil {
			fails = append(fails, fmt.Sprintf("pipeline probe: %v", err))
			continue
		}
		want, err := experiments.Prediction(opt)
		core.FlushCampaignCache()
		if err != nil {
			fails = append(fails, fmt.Sprintf("pipeline probe reference: %v", err))
			continue
		}
		var gb, wb bytes.Buffer
		experiments.RenderPrediction(&gb, &got)
		experiments.RenderPrediction(&wb, want)
		if gb.String() != wb.String() {
			fails = append(fails, fmt.Sprintf("pipeline probe for unit %d differs from experiments.Prediction", u))
		}
	}
	return ms(total) / float64(n), fails
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *campaign) discipline() []kv {
	return []kv{
		{"lazy", "golden checksums of every workload spec primed once, counted in setup_s"},
		{"setup", "one untimed warm-up report at a seed no timed unit uses"},
		{"cold", "every unit draws a fresh seed, calls experiments.Figure4 rather than the Fig4 memo, and flushes the campaign memo after itself, so no memo hits or grows across units"},
	}
}

// report renders the full xvolt-report evaluation (every artifact, no
// charts) to out, each experiments call under its own span, and returns
// the run records behind the Fig. 4 campaign set. It follows
// cmd/xvolt-report's run, which is not importable; the campaign check
// compares the two.
func report(ctx context.Context, tr *trace.Tracer, opt experiments.Options, out io.Writer) (int, error) {
	step := func(name string, f func() error) error {
		_, s := tr.StartSpan(ctx, "experiments."+name)
		defer s.End()
		return f()
	}
	_ = step("tables", func() error {
		experiments.RenderTable1(out)
		fmt.Fprintln(out)
		experiments.RenderTable2(out)
		fmt.Fprintln(out)
		experiments.RenderTable3(out)
		fmt.Fprintln(out)
		experiments.RenderTable4(out)
		fmt.Fprintln(out)
		return nil
	})
	var fig4 *experiments.Fig4Result
	steps := []struct {
		name string
		f    func() error
	}{
		{"fig4", func() error {
			var err error
			if fig4, err = experiments.Figure4(opt); err != nil {
				return err
			}
			experiments.RenderFigure3(out, fig4)
			fmt.Fprintln(out)
			experiments.RenderFigure4(out, fig4)
			fmt.Fprintln(out)
			return nil
		}},
		{"guardbands", func() error {
			g, err := experiments.Guardbands(fig4)
			if err != nil {
				return err
			}
			experiments.RenderGuardbands(out, g)
			fmt.Fprintln(out)
			return nil
		}},
		{"fig5", func() error {
			f, err := experiments.Figure5(opt)
			if err != nil {
				return err
			}
			experiments.RenderFigure5(out, f)
			fmt.Fprintln(out)
			return nil
		}},
		{"halfspeed", func() error {
			h, err := experiments.HalfSpeed(opt)
			if err != nil {
				return err
			}
			experiments.RenderHalfSpeed(out, h)
			fmt.Fprintln(out)
			return nil
		}},
		{"prediction", func() error {
			p, err := experiments.Prediction(opt)
			if err != nil {
				return err
			}
			experiments.RenderPrediction(out, p)
			fmt.Fprintln(out)
			return nil
		}},
		{"fig9", func() error {
			f, err := experiments.Figure9(opt)
			if err != nil {
				return err
			}
			experiments.RenderFigure9(out, f)
			fmt.Fprintln(out)
			return nil
		}},
		{"selftest", func() error {
			findings, err := selftest.Localize(xgene.New(silicon.NewChip(silicon.TTT, 1)), 4, opt.Runs)
			if err != nil {
				return err
			}
			experiments.RenderSelfTests(out, findings)
			fmt.Fprintln(out)
			return nil
		}},
		{"itanium", func() error {
			rows, err := experiments.ItaniumComparison(opt)
			if err != nil {
				return err
			}
			experiments.RenderItaniumComparison(out, rows)
			fmt.Fprintln(out)
			return nil
		}},
		{"enhancements", func() error {
			e, err := experiments.DesignEnhancements(opt, nil)
			if err != nil {
				return err
			}
			experiments.RenderEnhancements(out, e)
			fmt.Fprintln(out)
			return nil
		}},
		{"power", func() error {
			p, err := experiments.MeasuredPower(opt)
			if err != nil {
				return err
			}
			experiments.RenderMeasuredPower(out, p)
			fmt.Fprintln(out)
			return nil
		}},
		{"phases", func() error {
			p, err := experiments.PhasedGoverning(4)
			if err != nil {
				return err
			}
			experiments.RenderPhased(out, p)
			fmt.Fprintln(out)
			return nil
		}},
		{"iterations", func() error {
			rows, err := experiments.IterationStudy(5, opt.Seed)
			if err != nil {
				return err
			}
			experiments.RenderIterationStudy(out, rows)
			fmt.Fprintln(out)
			return nil
		}},
		{"scheduling", func() error {
			s, err := experiments.SchedulingWithPrediction(opt)
			if err != nil {
				return err
			}
			experiments.RenderScheduling(out, s)
			fmt.Fprintln(out)
			return nil
		}},
		{"analysis", func() error { return renderAnalysis(out, fig4) }},
	}
	for _, s := range steps {
		if err := step(s.name, s.f); err != nil {
			return 0, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	records := 0
	for _, c := range fig4.Campaigns {
		for _, st := range c.Steps {
			records += st.Tally.N
		}
	}
	return records, nil
}

// renderAnalysis is xvolt-report's closing Vmin analysis over the Fig. 4
// campaigns.
func renderAnalysis(out io.Writer, fig4 *experiments.Fig4Result) error {
	byChip, err := analysis.VminByChip(fig4.Campaigns)
	if err != nil {
		return err
	}
	analysis.Render(out, "Vmin distribution per chip", byChip)
	byCore, err := analysis.VminByCore(fig4.Campaigns)
	if err != nil {
		return err
	}
	analysis.Render(out, "Vmin distribution per core", byCore)
	corr, err := analysis.ChipCorrelation(fig4.Campaigns)
	if err != nil {
		return err
	}
	analysis.RenderCorrelation(out, corr)
	width, err := analysis.UnsafeWidthStats(fig4.Campaigns)
	if err != nil {
		return err
	}
	analysis.Render(out, "unsafe-region width (mV)", []analysis.VminStats{width})
	fmt.Fprintln(out)
	return nil
}
