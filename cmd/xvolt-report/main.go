// Command xvolt-report regenerates the paper's tables and figures from the
// simulated platform and prints them next to the published values.
//
// Usage:
//
//	xvolt-report               # everything (the full reproduction)
//	xvolt-report -only fig3    # one artifact: table1..4, fig3, fig4, fig5,
//	                           # prediction, fig9, guardbands, halfspeed,
//	                           # selftest
//	xvolt-report -runs 3       # cheaper campaigns (paper protocol is 10)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"xvolt/internal/analysis"
	"xvolt/internal/experiments"
	"xvolt/internal/selftest"
	"xvolt/internal/silicon"
	"xvolt/internal/xgene"
)

func main() {
	only := flag.String("only", "", "emit a single artifact (table1..table4, fig3, fig4, fig5, prediction, fig9, guardbands, halfspeed, selftest, itanium, enhancements, power)")
	runs := flag.Int("runs", 10, "characterization runs per voltage step")
	seed := flag.Int64("seed", 1, "experiment seed")
	charts := flag.Bool("charts", false, "also draw ASCII charts for fig3/fig5/fig9/guardbands")
	parallelism := flag.Int("parallelism", 0, "campaign-engine workers: 0 = GOMAXPROCS, 1 = sequential (results are identical at any setting)")
	flag.Parse()

	opt := experiments.Options{Runs: *runs, Seed: *seed, Parallelism: *parallelism}
	drawCharts = *charts
	if err := run(os.Stdout, *only, opt); err != nil {
		fmt.Fprintln(os.Stderr, "xvolt-report:", err)
		os.Exit(1)
	}
}

// drawCharts adds the ASCII-chart renditions after each figure.
var drawCharts bool

func run(out io.Writer, only string, opt experiments.Options) error {
	want := func(name string) bool { return only == "" || only == name }

	if want("table1") {
		experiments.RenderTable1(out)
		fmt.Fprintln(out)
	}
	if want("table2") {
		experiments.RenderTable2(out)
		fmt.Fprintln(out)
	}
	if want("table3") {
		experiments.RenderTable3(out)
		fmt.Fprintln(out)
	}
	if want("table4") {
		experiments.RenderTable4(out)
		fmt.Fprintln(out)
	}

	var fig4 *experiments.Fig4Result
	needFig4 := want("fig3") || want("fig4") || want("guardbands") || want("analysis")
	if needFig4 {
		var err error
		// fig3/fig4/guardbands/analysis all reduce one campaign set.
		if fig4, err = experiments.Figure4(opt); err != nil {
			return err
		}
	}
	if want("fig3") {
		experiments.RenderFigure3(out, fig4)
		if drawCharts {
			experiments.RenderFigure3Chart(out, fig4)
		}
		fmt.Fprintln(out)
	}
	if want("fig4") {
		experiments.RenderFigure4(out, fig4)
		fmt.Fprintln(out)
	}
	if want("guardbands") {
		g, err := experiments.Guardbands(fig4)
		if err != nil {
			return err
		}
		experiments.RenderGuardbands(out, g)
		if drawCharts {
			experiments.RenderGuardbandChart(out, g)
		}
		fmt.Fprintln(out)
	}
	if want("fig5") {
		f, err := experiments.Figure5(opt)
		if err != nil {
			return err
		}
		experiments.RenderFigure5(out, f)
		if drawCharts {
			experiments.RenderFigure5Chart(out, f)
		}
		fmt.Fprintln(out)
	}
	if want("halfspeed") {
		h, err := experiments.HalfSpeed(opt)
		if err != nil {
			return err
		}
		experiments.RenderHalfSpeed(out, h)
		fmt.Fprintln(out)
	}
	if want("prediction") {
		p, err := experiments.Prediction(opt)
		if err != nil {
			return err
		}
		experiments.RenderPrediction(out, p)
		fmt.Fprintln(out)
	}
	if want("fig9") {
		f, err := experiments.Figure9(opt)
		if err != nil {
			return err
		}
		experiments.RenderFigure9(out, f)
		if drawCharts {
			experiments.RenderFigure9Chart(out, f)
		}
		fmt.Fprintln(out)
	}
	if want("selftest") {
		m := xgene.New(silicon.NewChip(silicon.TTT, 1))
		findings, err := selftest.Localize(m, 4, opt.Runs)
		if err != nil {
			return err
		}
		experiments.RenderSelfTests(out, findings)
		fmt.Fprintln(out)
	}
	if want("itanium") {
		rows, err := experiments.ItaniumComparison(opt)
		if err != nil {
			return err
		}
		experiments.RenderItaniumComparison(out, rows)
		fmt.Fprintln(out)
	}
	if want("enhancements") {
		e, err := experiments.DesignEnhancements(opt, nil)
		if err != nil {
			return err
		}
		experiments.RenderEnhancements(out, e)
		fmt.Fprintln(out)
	}
	if want("power") {
		p, err := experiments.MeasuredPower(opt)
		if err != nil {
			return err
		}
		experiments.RenderMeasuredPower(out, p)
		fmt.Fprintln(out)
	}
	if want("phases") {
		p, err := experiments.PhasedGoverning(4)
		if err != nil {
			return err
		}
		experiments.RenderPhased(out, p)
		fmt.Fprintln(out)
	}
	if want("iterations") {
		rows, err := experiments.IterationStudy(5, opt.Seed)
		if err != nil {
			return err
		}
		experiments.RenderIterationStudy(out, rows)
		fmt.Fprintln(out)
	}
	if want("scheduling") {
		s, err := experiments.SchedulingWithPrediction(opt)
		if err != nil {
			return err
		}
		experiments.RenderScheduling(out, s)
		fmt.Fprintln(out)
	}
	if want("analysis") {
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
	}
	return nil
}
