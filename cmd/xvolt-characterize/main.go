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
	ckptPath := flag.String("checkpoint", "", "resume from / persist campaign progress in this JSON file")
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

func run(chipName, benchList, coreList string, freq, runs, start, stop int, seed int64, outPath, rawPath, modelName, ckptPath string, fast bool, traceOut, metricsAddr string, parallelism int) error {
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
	fw := core.New(machine)

	reg := obs.NewRegistry()
	fw.SetMetrics(reg)
	fw.SetTrace(trace.New(0))
	var sink *trace.JSONLSink
	if traceOut != "" {
		var closeSink func()
		sink, closeSink, err = openTraceSink(traceOut)
		if err != nil {
			return err
		}
		defer closeSink()
		fw.Trace().SetSink(sink)
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
		return runFast(fw, cfg, benchmarks, cores)
	}

	var records []core.RunRecord
	recoveries := func() int { return fw.Watchdog().Recoveries() }
	if ckptPath == "" {
		// Campaign engine: each worker drives a clone of the configured
		// board. Checkpointed studies stay on the sequential resumable
		// path; results are identical either way.
		runner := core.NewLadderRunner(machine.Clone)
		runner.SetParallelism(parallelism)
		runner.SetMetrics(reg)
		runner.SetTrace(fw.Trace())
		records, err = runner.Execute(cfg)
		recoveries = runner.Recoveries
	} else {
		records, err = execute(fw, cfg, ckptPath)
	}
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
		len(results), len(records), recoveries())
	if sink != nil {
		if err := sink.Err(); err != nil {
			return err
		}
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

// openTraceSink opens the JSONL trace stream ('-' means stderr, keeping
// stdout free for the results CSV). The returned closer surfaces close
// errors on stderr: trace output is durable campaign data, and a failed
// close means truncated JSONL.
func openTraceSink(path string) (*trace.JSONLSink, func(), error) {
	if path == "-" {
		return trace.NewJSONLSink(os.Stderr), func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return trace.NewJSONLSink(f), func() {
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "xvolt-characterize: closing %s: %v\n", path, err)
		}
	}, nil
}

// execute runs the sweep, optionally resuming from / persisting to a
// checkpoint file.
func execute(fw *core.Framework, cfg core.Config, ckptPath string) ([]core.RunRecord, error) {
	if ckptPath == "" {
		return fw.Execute(cfg)
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
	records, err := fw.ExecuteResumable(cfg, ckpt)
	if err != nil {
		return nil, err
	}
	// A checkpoint truncated by an unnoticed close failure would silently
	// restart completed sweeps on the next resume.
	if err := writeFile(ckptPath, ckpt.Save); err != nil {
		return nil, err
	}
	return records, nil
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
