// Prometheus text exposition (version 0.0.4) and the Snapshot map, both
// rendered from one walk over each family's samples, and the key lookup
// that reads one Snapshot sample without rendering the rest.
// The output is fully deterministic: families sort by name, children by
// label values, so it can be golden-tested and diffed between scrapes.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteProm renders every registered family in Prometheus text format.
// Nil-safe: a nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, f := range r.families() {
		if err := f.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot flattens every sample into a map keyed by its rendered sample
// name — `name` or `name{k="v"}`, with summaries expanded into their
// quantile, _sum and _count entries — exactly the sample lines WriteProm
// prints. It is the oracle for lookup, which the alert engine reads
// through. Nil-safe (nil).
//
//xvolt:lint-ignore unusedexport the oracle FuzzAlertLookup checks the alert engine's key lookup against
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := map[string]float64{}
	for _, f := range r.families() {
		f.eachSample(func(suffix, labels string, v float64, _ bool) {
			out[f.name+suffix+labels] = v
		})
	}
	return out
}

// sampleRef is one Snapshot key resolved to the instrument behind it.
// The zero value is an absent key.
type sampleRef struct {
	inst   any     // *Counter, *Gauge or *HDR; nil when absent
	suffix string  // a summary's "_sum" or "_count"; "" otherwise
	q      float64 // a summary's quantile, when suffix is ""
}

// lookup resolves a Snapshot key to its sample, or to the zero
// sampleRef when Snapshot would hold no such key. The key is the
// family's name, or a summary's name plus "_sum" or "_count", then the
// rendered label set, if any. Where two families render one key (a
// counter foo_sum beside a summary foo), Snapshot keeps the family
// written last, the one with the longer name, so the exact name is
// tried first. The sample stays the key's until the registry grows.
// Nil-safe.
func (r *Registry) lookup(key string) sampleRef {
	if r == nil {
		return sampleRef{}
	}
	name, labels := key, ""
	if i := strings.IndexByte(key, '{'); i >= 0 {
		name, labels = key[:i], key[i:] // metric names never hold '{'
	}
	if ref, ok := r.family(name).sample("", labels); ok {
		return ref
	}
	for _, suffix := range [...]string{"_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if ref, ok := r.family(base).sample(suffix, labels); ok {
				return ref
			}
		}
	}
	return sampleRef{}
}

// family returns the family registered under name, or nil.
func (r *Registry) family(name string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fams[name]
}

// sample finds the family's sample that renders as its name, then
// suffix, then labels. Nil-safe (not found).
func (f *family) sample(suffix, labels string) (sampleRef, bool) {
	if f == nil || (suffix != "" && f.kind != KindSummary) {
		return sampleRef{}, false
	}
	match := func(rendered string, inst any) (sampleRef, bool) {
		if f.kind == KindSummary && suffix == "" {
			for _, q := range summaryQuantiles {
				if withQuantile(rendered, q) == labels {
					return sampleRef{inst: inst, q: q}, true
				}
			}
			return sampleRef{}, false
		}
		if rendered != labels {
			return sampleRef{}, false
		}
		return sampleRef{inst: inst, suffix: suffix}, true
	}
	if len(f.labels) == 0 {
		return match("", f.single)
	}
	f.mu.Lock()
	children := f.sorted
	f.mu.Unlock()
	for _, c := range children {
		if ref, ok := match(c.labels, c.inst); ok {
			return ref, true
		}
	}
	return sampleRef{}, false
}

// read returns the sample's value as Snapshot renders it; ok is false
// for an absent key. A summary sample copies its HDR, as Snapshot does.
//
//xvolt:hotpath every alert evaluation reads each rule's samples here
func (s sampleRef) read() (v float64, ok bool) {
	switch m := s.inst.(type) {
	case *Counter:
		return m.Value(), true
	case *Gauge:
		return m.Value(), true
	case *HDR:
		snap := m.Snapshot()
		switch s.suffix {
		case "_sum":
			return snap.Sum, true
		case "_count":
			return float64(snap.Count), true
		}
		return snap.Quantile(s.q), true
	}
	return 0, false
}

// families returns the registered families in name order.
func (r *Registry) families() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sorted
}

// eachSample is the one walk over a family's samples, in exposition
// order: children by label values, and within a summary its quantiles,
// then _sum, then _count. visit gets the name suffix, the rendered label
// set and the value; count marks an integer sample (a summary's _count).
func (f *family) eachSample(visit func(suffix, labels string, v float64, count bool)) {
	emit := func(labels string, inst any) {
		switch m := inst.(type) {
		case *Counter:
			visit("", labels, m.Value(), false)
		case *Gauge:
			visit("", labels, m.Value(), false)
		case *HDR:
			s := m.Snapshot()
			for _, q := range summaryQuantiles {
				visit("", withQuantile(labels, q), s.Quantile(q), false)
			}
			visit("_sum", labels, s.Sum, false)
			visit("_count", labels, float64(s.Count), true)
		}
	}
	if len(f.labels) == 0 {
		emit("", f.single)
		return
	}
	f.mu.Lock()
	children := f.sorted
	f.mu.Unlock()
	for _, c := range children {
		emit(c.labels, c.inst)
	}
}

func (f *family) writeProm(w io.Writer) error {
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	var err error
	f.eachSample(func(suffix, labels string, v float64, count bool) {
		if err != nil {
			return
		}
		text := formatFloat(v)
		if count {
			text = strconv.FormatUint(uint64(v), 10)
		}
		_, err = fmt.Fprintf(w, "%s%s%s %s\n", f.name, suffix, labels, text)
	})
	return err
}

// renderLabels renders `{k1="v1",k2="v2"}` in declared label order.
func renderLabels(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// withQuantile appends a summary's quantile label to a rendered label
// set, which may be empty.
func withQuantile(labels string, q float64) string {
	pair := `quantile="` + formatFloat(q) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// escapeLabel escapes a label value per the text-format rules.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a HELP string (only backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
