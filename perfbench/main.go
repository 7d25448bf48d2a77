// Command perfbench is xvolt's fixed-work benchmark: three closed-loop
// workloads (dashboard, replicate, campaign) driven in one process
// through the public entry points the daemons and xvolt-report use. Run
// it from the repository root through the wrapper, which builds this
// module first:
//
//	python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0
//
// The work in a run is a pure function of -seed and -seconds: -seconds
// sizes the fixed counts (boards, chunks, requests, reports) by a nominal
// per-second rate and never stops a loop by the clock, so only time varies
// between runs of one seed. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. With
// -trace 0 the metrics are BENCHMARK.json's end_to_end list, timed in
// CPU time at a reference core speed (see probe.go); with -trace 1 the
// run repeats its timed window with spans recorded around every call
// into a layer and reports BENCHMARK.json's per_layer list instead.
// README.md records why each workload exists and which layer metric
// should move which end-to-end metric.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xvolt/internal/trace"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // scratch directory for the eventstore probe, work counts and span dumps
	spec     string // BENCHMARK.json: the metric names and units to print
}

// kv is one printed (name, value) pair; slices keep the output order.
type kv struct {
	k string
	v any
}

// window is one timed pass over a workload's fixed work. The workload
// brackets its timed loop with begin and end, so bookkeeping before and
// after the loop stays out of the measured time.
type window struct {
	tr     *trace.Tracer // nil: untraced (the tracer is nil-safe)
	ops    int           // completed throughput units
	tries  int           // attempted latency-bearing operations
	lat    []float64     // per-operation latency samples, ms
	lag    []float64     // replicate: chunk commit → hub ack, ms
	marks  []mark        // progress after each chunk or unit
	fails  []string      // transport errors and unexpected statuses
	counts []kv          // deterministic work counts
	wall   time.Duration
	gcFrac float64 // GC share of process CPU over the window

	span   *trace.ActiveSpan
	cpu    cpuStat
	t0     time.Time
	proc0  time.Duration // process CPU time at begin
	steal0 hostTicks
	steal  float64 // host CPU steal share over the window

	// Host-speed probes (untraced windows only). Their wall and CPU time
	// stay out of the marks.
	probes            []probeSample
	lastProbe         time.Time
	paused, pausedCPU time.Duration
}

// probeSample is one host-speed probe, taken after the first after marks.
type probeSample struct {
	after int
	cpu   time.Duration
}

// begin starts the timed window at a GC-cycle boundary (the runtime's
// CPU classes advance only at GC boundaries) and returns the context
// carrying the window span.
func (w *window) begin(ctx context.Context) context.Context {
	runtime.GC()
	w.cpu = readCPU()
	ctx, w.span = w.tr.StartSpan(ctx, "bench.window")
	w.steal0 = readHostTicks()
	w.proc0 = processCPU()
	w.t0 = time.Now()
	w.probe()
	return ctx
}

// probe measures the host's core speed between operations (see probe.go).
// Traced windows skip it, so their spans cover what they did before.
func (w *window) probe() {
	if w.tr != nil {
		return
	}
	t0, c0 := time.Now(), processCPU()
	w.probes = append(w.probes, probeSample{len(w.marks), probeHost()})
	w.lastProbe = time.Now()
	w.paused += w.lastProbe.Sub(t0)
	w.pausedCPU += processCPU() - c0
}

// mark is the window's progress at the end of one chunk or unit.
type mark struct {
	at, cpu time.Duration // wall and process CPU time since begin
	ops     int
}

// progress records that ops units are complete.
func (w *window) progress(ops int) {
	w.marks = append(w.marks, mark{time.Since(w.t0) - w.paused, processCPU() - w.proc0 - w.pausedCPU, ops})
	if time.Since(w.lastProbe) >= probeEvery {
		w.probe()
	}
}

// segments is how many slices of equal work a window's rates and costs
// take the median over, so a burst of interference on the host moves at
// most the slices it lands in.
const segments = 10

// slices splits the window into segments slices of equal work and
// applies per to each slice: its first and last marks, and the probes
// taken from its start to its end (or else the last one before it).
func (w *window) slices(per func(a, b mark, probes []time.Duration) float64) []float64 {
	n := segments
	if len(w.marks) < n {
		n = len(w.marks)
	}
	var out []float64
	from := 0
	for i := 1; i <= n; i++ {
		to := i * len(w.marks) / n
		a, b := w.markAt(from), w.markAt(to)
		if b.ops > a.ops {
			var probes []time.Duration
			var before time.Duration
			for _, p := range w.probes {
				switch {
				case p.after < from:
					before = p.cpu
				case p.after <= to:
					probes = append(probes, p.cpu)
				}
			}
			if len(probes) == 0 {
				probes = append(probes, before)
			}
			out = append(out, per(a, b, probes))
		}
		from = to
	}
	return out
}

// markAt is the window's state after its first k marks.
func (w *window) markAt(k int) mark {
	if k == 0 {
		return mark{}
	}
	return w.marks[k-1]
}

// rates are each slice's completions per wall second.
func (w *window) rates() []float64 {
	return w.slices(func(a, b mark, _ []time.Duration) float64 { return float64(b.ops-a.ops) / (b.at - a.at).Seconds() })
}

// costs are each slice's process CPU milliseconds per completion, as
// measured.
func (w *window) costs() []float64 {
	return w.slices(func(a, b mark, _ []time.Duration) float64 { return ms(b.cpu-a.cpu) / float64(b.ops-a.ops) })
}

// scaledCosts are each slice's process CPU milliseconds per completion at
// the reference core speed, by the probes taken over the slice.
func (w *window) scaledCosts() []float64 {
	return w.slices(func(a, b mark, probes []time.Duration) float64 {
		return 1e3 * atReferenceSpeed(b.cpu-a.cpu, probes...) / float64(b.ops-a.ops)
	})
}

// probeMS are the window's probe readings, ms.
func (w *window) probeMS() []float64 {
	var out []float64
	for _, p := range w.probes {
		out = append(out, ms(p.cpu))
	}
	return out
}

// end closes the timed window.
func (w *window) end() {
	w.probe()
	w.wall = time.Since(w.t0) - w.paused
	w.steal = readHostTicks().stealSince(w.steal0)
	w.span.End()
	w.gcFrac = gcShare(w.cpu, readCPU())
}

func (w *window) fail(format string, args ...any) {
	w.fails = append(w.fails, fmt.Sprintf(format, args...))
}

// scenario is one benchmark workload.
type scenario interface {
	// sizes are the fixed work counts, printed with every result.
	sizes() []kv
	// lazy pays process-level lazy state once (counted into setup_s).
	lazy()
	// setUp builds everything the timed window needs; the harness calls
	// it several times (tearing down in between) and keeps the last.
	setUp() error
	tearDown()
	// run performs the fixed work once, timing it with w.begin/w.end.
	run(ctx context.Context, w *window) error
	// checks verifies the program's outputs after the windows.
	checks(ctx context.Context) (attempted int, fails []string)
	// layers derives the per-layer metrics from the traced window and
	// any out-of-window probes (trace mode only).
	layers(ctx context.Context, plain, traced *window, a *breakdown) (map[string]float64, []string)
	// discipline records what is cold and what is warm in a run.
	discipline() []kv
}

// operations names, per workload, the unit of work cpu_ms_per_op and
// the wall-clock rate count.
var operations = map[string]struct{ op, rate string }{
	"dashboard": {"reader request", "requests_per_s"},
	"replicate": {"hub-acknowledged poll", "polls_per_s"},
	"campaign":  {"full report", "reports_per_s"},
}

func newWorkload(o options) (scenario, error) {
	switch o.workload {
	case "dashboard":
		return newDashboard(o), nil
	case "replicate":
		return newReplicate(o), nil
	case "campaign":
		return newCampaign(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want dashboard, replicate or campaign)", o.workload)
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "dashboard, replicate or campaign")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs and work")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal length of the timed window; sizes the fixed work")
	flag.IntVar(&traceFlag, "trace", 0, "1: report the per-layer breakdown from a traced window")
	flag.StringVar(&o.out, "out", ".bench_build", "scratch directory for the eventstore probe, work counts and span dumps")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition whose end_to_end and per_layer metrics are printed")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	wl, err := newWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ok, err := execute(context.Background(), o, wl, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// setupRepeats is how many times a trace-0 run sets up; setup_s is the
// median.
var setupRepeats = map[string]int{"dashboard": 9, "replicate": 9, "campaign": 5}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload end to end and prints the result. It
// reports whether every check passed.
func execute(ctx context.Context, o options, wl scenario, stdout io.Writer) (bool, error) {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	sp, err := loadSpec(o.spec)
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	mode := 0
	if o.trace {
		mode = 1
	}
	printLine(out, "env", environment(o, mode))
	printLine(out, "sizes", wl.sizes())

	// Set-up is timed in CPU time at the reference core speed, by probes
	// taken just before and after each part.
	cpu0 := readCPU()
	before := probeHost()
	t0, c0 := time.Now(), processCPU()
	wl.lazy()
	lazyWall, lazyCPU := time.Since(t0).Seconds(), processCPU()-c0
	lazyS := atReferenceSpeed(lazyCPU, before, probeHost())
	repeats := setupRepeats[o.workload]
	if o.trace {
		repeats = 1
	}
	var setupsWall, setupsCPU, setupsScaled []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			wl.tearDown()
		}
		runtime.GC()
		before := probeHost()
		t, c := time.Now(), processCPU()
		if err := wl.setUp(); err != nil {
			wl.tearDown()
			return false, fmt.Errorf("set-up: %w", err)
		}
		wall, cpu := time.Since(t), processCPU()-c
		setupsWall = append(setupsWall, wall.Seconds())
		setupsCPU = append(setupsCPU, cpu.Seconds())
		setupsScaled = append(setupsScaled, atReferenceSpeed(cpu, before, probeHost()))
	}
	defer wl.tearDown()
	setupS := lazyS + median(setupsScaled)
	runtime.GC()
	setupGC := gcShare(cpu0, readCPU())

	plain := &window{}
	if err := wl.run(ctx, plain); err != nil {
		return false, err
	}
	rss := peakRSSMB()
	heap := liveHeapMB()

	attempted := plain.tries
	fails := append([]string(nil), plain.fails...)
	var res result
	if o.trace {
		traced := &window{tr: trace.NewTracer(1<<22, 1)}
		if err := wl.run(ctx, traced); err != nil {
			return false, err
		}
		attempted += traced.tries
		fails = append(fails, traced.fails...)
		a := analyze(traced.tr.Spans())
		layers, lf := wl.layers(ctx, plain, traced, a)
		fails = append(fails, lf...)
		attempted++
		layers["runtime.setup_gc_cpu_frac"] = setupGC
		layers["runtime.gc_cpu_frac"] = plain.gcFrac
		layers["bench.unaccounted_frac"] = a.unaccounted()
		// Traced windows run no probes, so both sides are as measured.
		layers["bench.trace_overhead_frac"] = median(traced.costs())/median(plain.costs()) - 1
		if res.Metrics, err = pick(sp.PerLayer, layers, false); err != nil {
			return false, err
		}
		printLine(out, "self_time_ms", a.selfTable())
		if n := traced.tr.Evicted(); n > 0 {
			return false, fmt.Errorf("span buffer evicted %d spans", n)
		}
		path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, traced.tr.Spans()); err != nil {
			return false, err
		}
	}
	n, cf := wl.checks(ctx)
	attempted += n + 1 // the output checks and the work-count check
	fails = append(fails, cf...)
	if err := checkCounts(o, wl.sizes(), plain.counts); err != nil {
		fails = append(fails, err.Error())
	}

	var lat []float64
	if !o.trace {
		lat = sortedCopy(plain.lat)
		res.Metrics, err = pick(sp.EndToEnd, map[string]float64{
			"setup_s":       setupS,
			"cpu_ms_per_op": median(plain.scaledCosts()),
			"heap_mb":       heap,
			"rss_mb":        rss,
		}, true)
		if err != nil {
			return false, err
		}
		printLine(out, "samples", []kv{
			{"op", operations[o.workload].op}, {"ops", plain.ops},
			{"wall_s", plain.wall.Seconds()}, {"cpu_s", plain.markAt(len(plain.marks)).cpu.Seconds()},
			{"host_steal_frac", plain.steal},
			{"slice_rates_per_s", plain.rates()}, {"slice_cpu_ms_per_op", plain.costs()},
			{"slice_cpu_ms_per_op_at_reference", plain.scaledCosts()},
			{"probe_ms", plain.probeMS()}, {"probe_reference_ms", ms(probeRef)},
			{"latency_samples", len(lat)}, {"latency_max_ms", quantile(lat, 1)},
			{"lazy_wall_s", lazyWall}, {"lazy_cpu_s", lazyCPU.Seconds()},
			{"setup_repeats_wall_s", setupsWall}, {"setup_repeats_cpu_s", setupsCPU},
			{"setup_repeats_cpu_s_at_reference", setupsScaled},
			{"setup_gc_cpu_frac", setupGC}, {"window_gc_cpu_frac", plain.gcFrac},
		})
	}
	printLine(out, "discipline", wl.discipline())
	printLine(out, "counts", plain.counts)
	res.Attempted = attempted
	res.Failed = len(fails)
	res.Correct = len(fails) == 0
	errorRate := float64(res.Failed) / float64(res.Attempted)
	if !o.trace {
		// The wall-clock figures a user sees, printed but not gated: on a
		// shared host they move with the host's load (see README.md).
		wallclock := []kv{
			{"setup_wall_s", metric{lazyWall + median(setupsWall), "s"}},
			{operations[o.workload].rate, metric{median(plain.rates()), "1/s"}},
			{"latency_samples", metric{float64(len(lat)), "count"}},
			{"latency_p50_ms", metric{quantile(lat, 0.5), "ms"}},
		}
		// A tail percentile is printed only with ten samples beyond it.
		if len(lat) >= 1000 {
			wallclock = append(wallclock, kv{"latency_p99_ms", metric{quantile(lat, 0.99), "ms"}})
		}
		if len(plain.lag) > 0 {
			lag := sortedCopy(plain.lag)
			wallclock = append(wallclock, kv{"lag_p50_ms", metric{quantile(lag, 0.5), "ms"}},
				kv{"lag_p90_ms", metric{quantile(lag, 0.9), "ms"}})
		}
		printLine(out, "ungated", append(wallclock, kv{"error_rate", metric{errorRate, "ratio"}}))
	}
	printLine(out, "errors", []kv{{"error_rate", errorRate}, {"failures", fails}})
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(b))
	return res.Correct, out.Flush()
}

// environment is printed with every result.
func environment(o options, mode int) []kv {
	return []kv{
		{"workload", o.workload}, {"seed", o.seed}, {"seconds", o.seconds}, {"trace", mode},
		{"nproc", runtime.NumCPU()}, {"gomaxprocs", runtime.GOMAXPROCS(0)},
		{"go", runtime.Version()}, {"cpu", cpuModel()},
	}
}

// printLine writes one "perfbench <tag> {json}" info line.
func printLine(w io.Writer, tag string, fields []kv) {
	fmt.Fprintf(w, "perfbench %s %s\n", tag, orderedJSON(fields))
}

// orderedJSON renders fields as a JSON object in slice order.
func orderedJSON(fields []kv) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range fields {
		if i > 0 {
			b.WriteString(", ")
		}
		k, _ := json.Marshal(f.k)
		v, err := json.Marshal(f.v)
		if err != nil {
			v, _ = json.Marshal(fmt.Sprint(f.v))
		}
		b.Write(k)
		b.WriteString(": ")
		b.Write(v)
	}
	b.WriteByte('}')
	return b.String()
}

// checkCounts is the work-count check: the first run of one build of the
// benchmark (which links the whole program) on a workload at one seed
// and one set of sizes records its counts in the scratch directory, and
// every later run of that build must reproduce them exactly. A different
// build records its own, so a change to the program's work is compared
// only with runs of the same program.
func checkCounts(o options, sizes, counts []kv) error {
	build, err := executableDigest()
	if err != nil {
		return err
	}
	key := digest(build + orderedJSON(sizes))[:16]
	path := filepath.Join(o.out, "counts", fmt.Sprintf("%s-seed%d-%s.json", o.workload, o.seed, key))
	now := orderedJSON(counts)
	prev, err := os.ReadFile(path)
	if err == nil {
		if string(prev) != now {
			return fmt.Errorf("work counts differ from an earlier run of seed %d: was %s, now %s", o.seed, prev, now)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, []byte(now), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// cpuSamples are the runtime's cumulative CPU classes. They advance only
// at GC boundaries, so windows are bracketed by GC cycles.
var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

type cpuStat struct{ gc, total float64 }

func readCPU() cpuStat {
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return cpuStat{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcShare is the GC share of process CPU between two readings (0 when no
// GC cycle ended in between).
func gcShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks are the host-wide CPU time counters of /proc/stat.
type hostTicks struct{ steal, total uint64 }

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t hostTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of host CPU time stolen by the hypervisor since a.
func (t hostTicks) stealSince(a hostTicks) float64 {
	if t.total <= a.total {
		return 0
	}
	return float64(t.steal-a.steal) / float64(t.total-a.total)
}

// liveHeapMB is the live heap after two forced GC cycles: objects cached
// in a sync.Pool survive one cycle, so one cycle alone would count them
// as live or not depending on when the pool was last used.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank quantile of sorted samples (0 if none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// executableDigest is the hex SHA-256 of the running binary.
func executableDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digest is the hex SHA-256 of an artifact, recorded in the work counts.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// msSince is the wall time since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// sizeOf scales a nominal per-second rate to the run's fixed count.
func sizeOf(seconds int, perSecond float64) int {
	n := int(float64(seconds)*perSecond + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
