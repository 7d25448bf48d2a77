// Command xvolt-characterize runs undervolting campaigns — the paper's
// automated framework — and emits CSV results, exactly like the parsing
// phase of §2.2.
//
// Usage:
//
//	xvolt-characterize -chip TTT -benchmarks bwaves,mcf -cores 0,4
//	xvolt-characterize -chip TSS -freq 1200 -runs 5 -raw raw.csv -out results.csv
//	xvolt-characterize -trace-out trace.jsonl -metrics-addr :9090
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"

	"xvolt/internal/core"
	"xvolt/internal/csvutil"
	"xvolt/internal/obs"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func main() {
	chipName := flag.String("chip", "TTT", "process corner: TTT, TFF or TSS")
	benchList := flag.String("benchmarks", "all", "comma-separated program names, IDs (name/input), or 'all'")
	coreList := flag.String("cores", "0,1,2,3,4,5,6,7", "comma-separated core indices")
	freq := flag.Int("freq", 2400, "frequency of the PMD under test (MHz)")
	runs := flag.Int("runs", 10, "runs per voltage step")
	start := flag.Int("start", int(units.NominalPMD), "sweep start voltage (mV)")
	stop := flag.Int("stop", 800, "sweep stop voltage (mV)")
	seed := flag.Int64("seed", 1, "campaign seed")
	outPath := flag.String("out", "-", "parsed results CSV path ('-' = stdout)")
	rawPath := flag.String("raw", "", "optional raw per-run log CSV path")
	model := flag.String("model", "xgene", "failure model: xgene or itanium")
	ckptPath := flag.String("checkpoint", "", "resume from / journal campaign progress to this JSON-lines file")
	fast := flag.Bool("fast", false, "bisection Vmin search instead of a full sweep (prints a Vmin table, no CSV)")
	traceOut := flag.String("trace-out", "", "stream every trace event to this JSONL file ('-' = stderr)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /healthz on this address while the campaign runs")
	parallelism := flag.Int("parallelism", 0, "campaign-engine workers: 0 = GOMAXPROCS, 1 = sequential (results are identical at any setting)")
	flag.Parse()

	if err := run(*chipName, *benchList, *coreList, *freq, *runs, *start, *stop, *seed, *outPath, *rawPath, *model, *ckptPath, *fast, *traceOut, *metricsAddr, *parallelism); err != nil {
		fmt.Fprintln(os.Stderr, "xvolt-characterize:", err)
		os.Exit(1)
	}
}

func run(chipName, benchList, coreList string, freq, runs, start, stop int, seed int64, outPath, rawPath, modelName, ckptPath string, fast bool, traceOut, metricsAddr string, parallelism int) (err error) {
	corner, err := silicon.ParseCorner(chipName)
	if err != nil {
		return err
	}
	var model silicon.Model
	switch modelName {
	case "xgene":
		model = silicon.XGene
	case "itanium":
		model = silicon.Itanium
	default:
		return fmt.Errorf("unknown model %q", modelName)
	}

	benchmarks, err := resolveBenchmarks(benchList)
	if err != nil {
		return err
	}
	cores, err := parseCores(coreList)
	if err != nil {
		return err
	}

	seedByCorner := map[silicon.Corner]int64{silicon.TTT: 1, silicon.TFF: 2, silicon.TSS: 3}
	machine := xgene.NewWithModel(silicon.NewChip(corner, seedByCorner[corner]), model)

	reg := obs.NewRegistry()
	tlog := trace.New(0)
	var sink *trace.JSONLSink
	if traceOut != "" {
		var closeSink func() error
		// '-' streams to stderr, keeping stdout free for the results CSV.
		sink, closeSink, err = trace.OpenJSONL(traceOut, os.Stderr)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := closeSink(); err == nil {
				err = cerr
			}
		}()
		tlog.SetSink(sink)
	}
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		//xvolt:lint-ignore goroleak metrics listener is process-lifetime; it dies with the CLI
		go func() {
			if err := http.ListenAndServe(metricsAddr, mux); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}

	cfg := core.DefaultConfig(benchmarks, cores)
	cfg.Frequency = units.MegaHertz(freq)
	cfg.Runs = runs
	cfg.StartVoltage = units.MilliVolts(start)
	cfg.StopVoltage = units.MilliVolts(stop)
	cfg.Seed = seed

	if fast {
		fw := core.New(machine)
		fw.SetMetrics(reg)
		fw.SetTrace(tlog)
		return runFast(fw, cfg, benchmarks, cores)
	}

	// Campaign engine: each worker drives a clone of the configured board.
	runner := core.NewLadderRunner(machine.Clone)
	runner.SetParallelism(parallelism)
	runner.SetMetrics(reg)
	runner.SetTrace(tlog)
	records, err := execute(runner, cfg, ckptPath)
	if err != nil {
		return err
	}
	results := core.Parse(records)

	out, closeOut, err := openOut(outPath)
	if err != nil {
		return err
	}
	if err := csvutil.WriteCampaigns(out, results, core.PaperWeights); err != nil {
		_ = closeOut() // the write error is the one worth surfacing
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}

	if rawPath != "" {
		if err := writeFile(rawPath, func(w io.Writer) error {
			return csvutil.WriteRaw(w, records)
		}); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "characterized %d campaigns (%d runs, %d watchdog recoveries)\n",
		len(results), len(records), runner.Recoveries())
	if sink != nil {
		fmt.Fprintf(os.Stderr, "streamed %d trace events\n", sink.Count())
	}
	return nil
}

// writeFile creates path, streams write into it, and closes it — the
// close error is reported (a short write on a full disk often only
// surfaces at Close) unless the write itself already failed.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// execute runs the sweep, optionally resuming from and journaling to a
// checkpoint file. The file is first rewritten from what it held (a torn
// final line dropped); then each campaign's line is appended and synced
// as the study accounts for it, so a killed study resumes after its last
// accounted campaign.
func execute(runner *core.LadderRunner, cfg core.Config, ckptPath string) ([]core.RunRecord, error) {
	if ckptPath == "" {
		return runner.Execute(cfg)
	}
	ckpt := core.NewCheckpoint()
	if f, err := os.Open(ckptPath); err == nil {
		loaded, lerr := core.LoadCheckpoint(f)
		_ = f.Close() // read-only; close failures cannot lose data
		if lerr != nil {
			return nil, lerr
		}
		ckpt = loaded
		fmt.Fprintf(os.Stderr, "resuming: %d sweeps already complete\n", len(ckpt.Done))
	}
	journal, err := rewriteCheckpoint(ckptPath, ckpt)
	if err != nil {
		return nil, err
	}
	ckpt.SetJournal(journal)
	records, err := runner.ExecuteResumable(cfg, ckpt)
	// A line lost to an unnoticed close failure would silently rerun its
	// campaign on the next resume.
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return records, nil
}

// rewriteCheckpoint replaces the file at path with ckpt's lines through a
// synced temporary file renamed over it, so a kill at any point leaves
// the old file or the new one whole. It returns the new file, open for
// appending.
func rewriteCheckpoint(path string, ckpt *core.Checkpoint) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	err = ckpt.Save(f)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = f.Close() // the write error is the one worth surfacing
		_ = os.Remove(tmp)
		return nil, err
	}
	return f, nil
}

// runFast bisects each (benchmark, core) Vmin and prints the table.
func runFast(fw *core.Framework, cfg core.Config, benchmarks []*workload.Spec, cores []int) error {
	fmt.Printf("%-22s %-5s %-8s %s\n", "benchmark", "core", "vmin", "runs")
	for _, spec := range benchmarks {
		for _, c := range cores {
			res, err := fw.FindVminFast(spec, c, cfg, cfg.Runs)
			if err != nil {
				return err
			}
			fmt.Printf("%-22s %-5d %-8v %d\n", spec.ID(), c, res.SafeVmin, res.RunsUsed)
		}
	}
	return nil
}

func resolveBenchmarks(list string) ([]*workload.Spec, error) {
	if list == "all" {
		return workload.PrimarySuite(), nil
	}
	if list == "suite" {
		return workload.PredictionSuite(), nil
	}
	var out []*workload.Spec
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		var (
			s   *workload.Spec
			err error
		)
		if strings.Contains(name, "/") {
			s, err = workload.Lookup(name)
		} else {
			s, err = workload.LookupName(name)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func parseCores(list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad core %q: %w", part, err)
		}
		out = append(out, c)
	}
	return out, nil
}

func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
