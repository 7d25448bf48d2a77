package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xvolt/internal/core"
	"xvolt/internal/experiments"
)

// render runs the command body into a buffer and returns what it printed.
func render(t *testing.T, only string, opt experiments.Options) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, only, opt); err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, buf.String())
	}
	return buf.String()
}

// Every artifact branch must execute and print something recognizable.
func TestRunAllArtifacts(t *testing.T) {
	opt := experiments.Options{Runs: 2, Seed: 1}
	cases := []struct {
		only string
		want string
	}{
		{"table1", "Table 1"},
		{"table2", "Table 2"},
		{"table3", "Table 3"},
		{"table4", "Table 4"},
		{"fig3", "Figure 3"},
		{"fig4", "Figure 4"},
		{"fig5", "Figure 5"},
		{"guardbands", "Guardbands"},
		{"halfspeed", "1.2 GHz"},
		{"fig9", "Figure 9"},
		{"selftest", "Self-tests"},
		{"itanium", "Failure-physics"},
		{"enhancements", "Design enhancements"},
		{"power", "Power telemetry"},
		{"phases", "Phase-aware"},
		{"iterations", "Iterative execution"},
		{"scheduling", "Prediction-guided scheduling"},
		{"analysis", "Vmin distribution"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.only, func(t *testing.T) {
			out := render(t, tc.only, opt)
			if !strings.Contains(out, tc.want) {
				t.Errorf("-only %s output missing %q:\n%.400s", tc.only, tc.want, out)
			}
		})
	}
}

// The charts flag decorates the figure artifacts.
func TestRunWithCharts(t *testing.T) {
	drawCharts = true
	defer func() { drawCharts = false }()
	out := render(t, "fig9", experiments.Options{Runs: 2, Seed: 1})
	if !strings.Contains(out, "Figure 9 (chart)") {
		t.Errorf("charts missing:\n%.400s", out)
	}
}

// The prediction artifact is heavier; run it once at reduced cost.
func TestRunPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("prediction artifact is expensive")
	}
	out := render(t, "prediction", experiments.Options{Runs: 3, Seed: 1})
	if !strings.Contains(out, "case 1") || !strings.Contains(out, "case 3") {
		t.Errorf("prediction output incomplete:\n%.600s", out)
	}
}

// The whole report is pinned byte for byte: testdata holds
// `xvolt-report -seed 1` and `xvolt-report -seed 7 -runs 3`, and the
// command must reproduce both at one campaign worker and at four. Each
// render flushes the campaign memo first, so every sweep in it, Fig. 4's
// included, runs at that render's worker count.
func TestRunMatchesGolden(t *testing.T) {
	goldens := []struct {
		file string
		opt  experiments.Options
	}{
		{"seed1.txt", experiments.Options{Runs: 10, Seed: 1}},
		{"seed7-runs3.txt", experiments.Options{Runs: 3, Seed: 7}},
	}
	for _, g := range goldens {
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			opt := g.opt
			opt.Parallelism = workers
			t.Run(fmt.Sprintf("%s/parallelism-%d", g.file, workers), func(t *testing.T) {
				// Sweep every campaign afresh rather than replay the
				// previous render's memo entries.
				core.FlushCampaignCache()
				if got := render(t, "", opt); got != string(want) {
					t.Errorf("report differs from testdata/%s:\n%s", g.file, firstDiff(got, string(want)))
				}
			})
		}
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}
