// Command xvolt-serve runs a characterization study while publishing it
// over HTTP — the "cloud" sink of the paper's Fig. 2: live board status,
// parsed results (JSON/CSV), the framework's trace tail, and Prometheus
// metrics on GET /metrics (plus an optional dedicated metrics listener).
//
// Usage:
//
//	xvolt-serve -addr :8080 -chip TTT -benchmarks bwaves,mcf -cores 0,4
//	xvolt-serve -metrics-addr :9090 -trace-out trace.jsonl
//
// then browse http://localhost:8080/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"xvolt/internal/core"
	"xvolt/internal/obs"
	"xvolt/internal/server"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	chipName := flag.String("chip", "TTT", "process corner: TTT, TFF or TSS")
	benchList := flag.String("benchmarks", "all", "comma-separated program names or 'all'")
	coreList := flag.String("cores", "0,4", "comma-separated core indices")
	runs := flag.Int("runs", 10, "runs per voltage step")
	seed := flag.Int64("seed", 1, "campaign seed")
	metricsAddr := flag.String("metrics-addr", "", "optional extra listen address serving only /metrics and /healthz")
	debugAddr := flag.String("debug-addr", "", "optional debug listener (pprof + runtime-sampled /metrics)")
	traceOut := flag.String("trace-out", "", "stream every trace event to this JSONL file ('-' = stderr)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context; both listeners drain and the
	// process exits cleanly instead of dropping in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, *addr, *chipName, *benchList, *coreList, *runs, *seed, *metricsAddr, *debugAddr, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "xvolt-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, addr, chipName, benchList, coreList string, runs int, seed int64, metricsAddr, debugAddr, traceOut string) (err error) {
	corner, err := silicon.ParseCorner(chipName)
	if err != nil {
		return err
	}
	seedByCorner := map[silicon.Corner]int64{silicon.TTT: 1, silicon.TFF: 2, silicon.TSS: 3}
	fw := core.New(xgene.New(silicon.NewChip(corner, seedByCorner[corner])))
	reg := obs.NewRegistry()
	fw.SetMetrics(reg)
	fw.SetTrace(trace.New(8192))
	if traceOut != "" {
		// '-' streams to stderr, so whatever supervises the process can
		// capture the durable log.
		sink, closeSink, oerr := trace.OpenJSONL(traceOut, os.Stderr)
		if oerr != nil {
			return oerr
		}
		defer func() {
			if cerr := closeSink(); err == nil {
				err = cerr
			}
		}()
		fw.Trace().SetSink(sink)
	}
	srv := server.New(fw)
	srv.SetMetrics(reg)
	srv.SetTracer(trace.NewTracer(0, 1))

	if debugAddr != "" {
		rs := obs.NewRuntimeStats(reg)
		go func() {
			log.Printf("debug listener on %s (pprof, runtime metrics)", debugAddr)
			if err := server.ListenAndServe(ctx, debugAddr, server.DebugHandler(reg, rs), server.DefaultDrainTimeout); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		go func() {
			log.Printf("metrics on %s", metricsAddr)
			if err := server.ListenAndServe(ctx, metricsAddr, mux, server.DefaultDrainTimeout); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}

	benchmarks, err := resolveBenchmarks(benchList)
	if err != nil {
		return err
	}
	cores, err := parseCores(coreList)
	if err != nil {
		return err
	}

	// The study runs in the background; results publish as it finishes.
	//xvolt:lint-ignore goroleak background campaign publishes into the server and is bounded by process lifetime
	go func() {
		cfg := core.DefaultConfig(benchmarks, cores)
		cfg.Runs = runs
		cfg.Seed = seed
		results, err := fw.Characterize(cfg)
		if err != nil {
			log.Printf("campaign failed: %v", err)
			return
		}
		srv.SetResults(results)
		log.Printf("campaign done: %d campaigns published", len(results))
	}()

	log.Printf("serving on %s (chip %s, %d benchmarks, cores %v)", addr, chipName, len(benchmarks), cores)
	return server.ListenAndServe(ctx, addr, srv.Handler(), server.DefaultDrainTimeout)
}

func resolveBenchmarks(list string) ([]*workload.Spec, error) {
	if list == "all" {
		return workload.PrimarySuite(), nil
	}
	var out []*workload.Spec
	for _, name := range strings.Split(list, ",") {
		s, err := workload.LookupName(strings.TrimSpace(name))
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
