// Prometheus text exposition (version 0.0.4) and the Snapshot map, both
// rendered from one walk over each family's samples.
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
// prints, for tests and alert rules. Nil-safe (nil).
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
