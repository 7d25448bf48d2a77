// Package obs is the framework's telemetry layer: a dependency-free,
// concurrency-safe metrics registry holding three instruments — counters,
// gauges and HDR latency histograms (exposed as Prometheus summaries),
// each single or as a labeled family — plus span helpers for timing
// regions into an HDR, a Prometheus-text-format exposition (WriteProm),
// a Snapshot map of every sample (both rendered from one sample walk),
// and the alert-rule engine, which reads only the samples its rules
// name, with Snapshot as its oracle.
//
// The paper's framework lives or dies by what it can observe about its
// own runs (§2.2.1 "Safe Data Collection"): every subsystem exports
// quantitative telemetry here so a campaign can be monitored — and its
// results audited — while it is still running.
//
// All instrument methods and all Registry lookup methods are nil-safe:
// a component holding a nil *Counter (because no registry was attached)
// pays one pointer compare per operation and records nothing. That keeps
// instrumentation unconditional at call sites.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the instrument families a registry can hold.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindSummary is a log-bucketed HDR histogram exposed as quantiles.
	KindSummary
)

// String names the kind as in the Prometheus TYPE line.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSummary:
		return "summary"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// addFloat atomically adds d to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Counter is a monotonically increasing float64. The zero value is ready
// to use; a nil *Counter is inert.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract). Nil-safe.
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	addFloat(&c.bits, d)
}

// Value returns the current count. Nil-safe (0).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64. The zero value is ready; nil is inert.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the value by d (negative allowed). Nil-safe.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, d)
}

// Inc adds 1. Nil-safe.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1. Nil-safe.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value. Nil-safe (0).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// family is one registered metric name: either a single instrument
// (labels == nil) or a labeled family of children.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	opts   HDROpts // summaries only

	single any // *Counter / *Gauge / *HDR when labels == nil

	grown *atomic.Uint64 // the registry's count of added families and children

	mu       sync.Mutex
	children map[string]*child // joined label values -> child
	sorted   []*child          // by joined label values; replaced, never mutated
}

// child is one labeled instrument, its label set rendered once at
// creation for every later exposition.
type child struct {
	key    string // joined label values
	labels string // `{k1="v1",k2="v2"}`
	inst   any
}

// newInstrument builds one instrument of the family's kind.
func (f *family) newInstrument() any {
	switch f.kind {
	case KindCounter:
		return &Counter{}
	case KindGauge:
		return &Gauge{}
	default:
		return NewHDR(f.opts)
	}
}

// with returns the child instrument for the label values, creating it on
// first use. The value count must match the registered label names.
func (f *family) with(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.inst
	}
	c := &child{key: key, labels: renderLabels(f.labels, values), inst: f.newInstrument()}
	f.children[key] = c
	f.sorted = insertSorted(f.sorted, c, func(o *child) bool { return o.key > key })
	f.grown.Add(1)
	return c.inst
}

// insertSorted returns a new slice holding s with x inserted before the
// first element for which after reports true. s itself is never
// written, so a reader holding it keeps a consistent view.
func insertSorted[T any](s []T, x T, after func(T) bool) []T {
	i := sort.Search(len(s), func(i int) bool { return after(s[i]) })
	out := make([]T, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	return append(out, s[i:]...)
}

// labelKey joins label values with an unprintable separator so distinct
// value tuples cannot collide.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// Registry holds a namespace of instruments. The zero value is NOT usable;
// call NewRegistry. A nil *Registry is safe: every lookup returns a nil
// instrument, which is itself inert.
type Registry struct {
	mu     sync.Mutex
	fams   map[string]*family
	sorted []*family // by name; replaced, never mutated

	// grown counts the families and children ever added, each counted
	// after it is visible: a key resolved at one count (lookup) still
	// names the same sample while the count stays.
	grown atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// validName matches the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && !(i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use.
// Re-registering a name with a different kind, label set or HDR layout
// is a programming error and panics — silent divergence would corrupt the
// exposition.
func (r *Registry) register(name, help string, kind Kind, labels []string, opts HDROpts) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !sameStrings(f.labels, labels) || f.opts != opts {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, opts: opts,
		labels:   append([]string(nil), labels...),
		grown:    &r.grown,
		children: map[string]*child{},
	}
	if len(labels) == 0 {
		f.single = f.newInstrument()
	}
	r.fams[name] = f
	r.sorted = insertSorted(r.sorted, f, func(o *family) bool { return o.name > name })
	r.grown.Add(1)
	return f
}

// growth returns how many families and children the registry has
// added. Nil-safe (0: a nil registry never grows).
func (r *Registry) growth() uint64 {
	if r == nil {
		return 0
	}
	return r.grown.Load()
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the counter registered under name, creating it on first
// use. Nil-safe: a nil registry returns a nil (inert) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindCounter, nil, HDROpts{}).single.(*Counter)
}

// Gauge returns the gauge registered under name. Nil-safe.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindGauge, nil, HDROpts{}).single.(*Gauge)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ fam *family }

// CounterVec returns the labeled counter family under name. Nil-safe.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs at least one label", name))
	}
	return &CounterVec{fam: r.register(name, help, KindCounter, labels, HDROpts{})}
}

// With returns the child counter for the given label values (created on
// first use). Nil-safe: nil vec returns a nil counter. The value count
// must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.with(values).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// GaugeVec returns the labeled gauge family under name. Nil-safe.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: GaugeVec %q needs at least one label", name))
	}
	return &GaugeVec{fam: r.register(name, help, KindGauge, labels, HDROpts{})}
}

// With returns the child gauge for the label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.with(values).(*Gauge)
}
