// Command xvolt-benchgate is the CI benchmark regression gate: it parses
// `go test -bench` output, compares every benchmark's ns/op against the
// committed BENCH_baseline.json, and fails when a benchmark regresses
// beyond the tolerance. The smoke run is a single iteration on a shared
// CI box, so the gate is deliberately loose — its job is catching
// order-of-magnitude rot (an accidentally quadratic loop, a lost fast
// path), not 5% drift.
//
// Usage:
//
//	go test -p 1 -bench=. -benchtime=1x -run '^$' ./... | xvolt-benchgate -baseline BENCH_baseline.json
//	go test -p 1 -bench=. -benchtime=1x -run '^$' ./... | xvolt-benchgate -baseline BENCH_baseline.json -update
//
// A benchmark fails the gate when measured > baseline*factor + slack;
// the absolute slack term keeps sub-millisecond benchmarks from failing
// on scheduler noise alone. A baseline benchmark missing from the run
// fails the gate too, so a deleted, renamed or silently skipped benchmark
// cannot drop out unnoticed; a benchmark the baseline lacks is reported
// and passes (-update refreshes the set).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// baselineFile mirrors BENCH_baseline.json. Schema 2 adds the optional
// alloc columns recorded by b.ReportAllocs.
type baselineFile struct {
	Schema      int             `json:"schema"`
	Command     string          `json:"command"`
	Recorded    string          `json:"recorded"`
	Environment json.RawMessage `json:"environment"`
	Benchmarks  []benchEntry    `json:"benchmarks"`
}

type benchEntry struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline to gate against")
	inPath := flag.String("in", "-", "bench output to parse ('-' = stdin)")
	factor := flag.Float64("factor", 1.5, "fail when ns/op exceeds baseline by more than this factor (plus -slack)")
	slack := flag.Duration("slack", 5*time.Millisecond, "absolute slack added to every threshold")
	update := flag.Bool("update", false, "rewrite the baseline from the parsed output instead of gating")
	flag.Parse()

	if err := run(*baselinePath, *inPath, *factor, *slack, *update); err != nil {
		fmt.Fprintln(os.Stderr, "xvolt-benchgate:", err)
		os.Exit(1)
	}
}

func run(baselinePath, inPath string, factor float64, slack time.Duration, update bool) error {
	in := io.Reader(os.Stdin)
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		measured, err := parseBench(f)
		_ = f.Close() // read-only; close failures cannot lose data
		if err != nil {
			return err
		}
		return gateOrUpdate(baselinePath, measured, factor, slack, update)
	}
	measured, err := parseBench(in)
	if err != nil {
		return err
	}
	return gateOrUpdate(baselinePath, measured, factor, slack, update)
}

func gateOrUpdate(baselinePath string, measured []benchEntry, factor float64, slack time.Duration, update bool) error {
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}

	base, err := loadBaseline(baselinePath)
	if err != nil {
		return err
	}

	if update {
		return writeBaseline(baselinePath, base, measured)
	}
	return gate(base, measured, factor, slack)
}

func loadBaseline(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baselineFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// parseBench extracts benchmark result lines from `go test -bench`
// output. A result line is
//
//	BenchmarkName[-P]  <iters>  <ns> ns/op  [<b> B/op] [<n> allocs/op] [<v> <unit>]...
//
// interleaved with goos/pkg headers and ok/PASS trailers, which are
// skipped.
func parseBench(r io.Reader) ([]benchEntry, error) {
	var out []benchEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			// Strip the GOMAXPROCS suffix when present.
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := benchEntry{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		// The rest of the line is (value, unit) pairs.
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], sc.Text())
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
				ok = true
			case "B/op":
				b := v
				e.BytesPerOp = &b
			case "allocs/op":
				a := v
				e.AllocsPerOp = &a
			default:
				e.Metrics[unit] = v
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out, sc.Err()
}

// gate compares measured entries against the baseline and reports every
// benchmark on stderr; regressions fail with a non-zero exit.
func gate(base *baselineFile, measured []benchEntry, factor float64, slack time.Duration) error {
	baseBy := map[string]benchEntry{}
	for _, e := range base.Benchmarks {
		baseBy[e.Name] = e
	}
	seen := map[string]bool{}
	var failures []string
	for _, m := range measured {
		seen[m.Name] = true
		b, ok := baseBy[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "  new      %-40s %12.0f ns/op (no baseline; run -update)\n", m.Name, m.NsPerOp)
			continue
		}
		limit := b.NsPerOp*factor + float64(slack.Nanoseconds())
		status := "ok"
		if m.NsPerOp > limit {
			status = "FAIL"
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns/op exceeds %.0f (baseline %.0f × %.2g + %v)",
					m.Name, m.NsPerOp, limit, b.NsPerOp, factor, slack))
		}
		fmt.Fprintf(os.Stderr, "  %-8s %-40s %12.0f ns/op (baseline %12.0f, limit %12.0f)\n",
			status, m.Name, m.NsPerOp, b.NsPerOp, limit)
	}
	for _, b := range base.Benchmarks {
		if !seen[b.Name] {
			fmt.Fprintf(os.Stderr, "  MISSING  %-40s (in baseline, not in run)\n", b.Name)
			failures = append(failures, fmt.Sprintf("%s: in the baseline but missing from the run", b.Name))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark failure(s):\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "benchgate: %d benchmarks within tolerance\n", len(measured))
	return nil
}

// writeBaseline rewrites the baseline file in place, preserving the
// command and environment stanzas and stamping today's date.
func writeBaseline(path string, base *baselineFile, measured []benchEntry) error {
	sort.SliceStable(measured, func(i, j int) bool { return measured[i].Name < measured[j].Name })
	out := baselineFile{
		Schema:      2,
		Command:     base.Command,
		Recorded:    time.Now().UTC().Format("2006-01-02"),
		Environment: base.Environment,
		Benchmarks:  measured,
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchgate: baseline %s rewritten (%d benchmarks)\n", path, len(measured))
	return nil
}
