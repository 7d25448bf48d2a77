package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"xvolt/internal/obs"
	"xvolt/internal/trace"
)

// Span naming: "bench.*" spans are the benchmark's own structure (the
// window, a chunk, a unit); every other span wraps one call into the
// layer its name starts with.
func isLayer(name string) bool { return !strings.HasPrefix(name, "bench.") }

// layerStat aggregates the spans of one name.
type layerStat struct {
	n         int
	dur, self time.Duration
	hdr       *obs.HDR // span durations, seconds
}

// meanUS is the mean span duration in microseconds.
func (s *layerStat) meanUS() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.dur.Microseconds()) / float64(s.n)
}

// breakdown is the traced window's span breakdown.
type breakdown struct {
	spans   []trace.Span
	stats   map[string]*layerStat
	wall    time.Duration // the bench.window span
	covered time.Duration // union of layer spans inside the window
}

type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by intervals clipped to [lo, hi].
func unionLen(iv []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total time.Duration
	cur := interval{lo: -1, hi: -1}
	for _, x := range iv {
		if x.lo < lo {
			x.lo = lo
		}
		if x.hi > hi {
			x.hi = hi
		}
		if x.hi <= x.lo {
			continue
		}
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// analyze computes each span's self time (its duration minus what its
// child spans cover) per name, and how much of the window the layer
// spans cover.
func analyze(spans []trace.Span) *breakdown {
	a := &breakdown{spans: spans, stats: map[string]*layerStat{}}
	children := map[uint64][]interval{}
	var win trace.Span
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
		if s.Name == "bench.window" {
			win = s
		}
	}
	var layers []interval
	for _, s := range spans {
		st := a.stats[s.Name]
		if st == nil {
			st = &layerStat{hdr: obs.NewHDR(obs.HDROpts{})}
			a.stats[s.Name] = st
		}
		st.n++
		st.dur += s.Duration()
		st.self += s.Duration() - unionLen(children[s.ID], s.Start, s.End)
		st.hdr.Observe(s.Duration().Seconds())
		if isLayer(s.Name) {
			layers = append(layers, interval{s.Start, s.End})
		}
	}
	a.wall = win.Duration()
	a.covered = unionLen(layers, win.Start, win.End)
	return a
}

// stat returns the aggregate for one span name (nil if none ran).
func (a *breakdown) stat(name string) *layerStat { return a.stats[name] }

// unaccounted is the share of the window no layer span covers.
func (a *breakdown) unaccounted() float64 {
	if a.wall <= 0 {
		return 0
	}
	return 1 - float64(a.covered)/float64(a.wall)
}

// attrSum sums a numeric span attribute over the spans of one name.
func (a *breakdown) attrSum(name, key string) float64 {
	var sum float64
	for _, s := range a.spans {
		if s.Name != name {
			continue
		}
		for _, at := range s.Attrs {
			if at.Key == key {
				v, _ := strconv.ParseFloat(at.Value, 64)
				sum += v
			}
		}
	}
	return sum
}

// attrCount counts the spans of one name carrying key=value.
func (a *breakdown) attrCount(name, key, value string) int {
	n := 0
	for _, s := range a.spans {
		if s.Name != name {
			continue
		}
		for _, at := range s.Attrs {
			if at.Key == key && at.Value == value {
				n++
			}
		}
	}
	return n
}

// selfTable is the printed breakdown: per span name, calls, total self
// time and the p50/p99 duration.
func (a *breakdown) selfTable() []kv {
	names := make([]string, 0, len(a.stats))
	for n := range a.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []kv{{"window", ms(a.wall)}, {"covered", ms(a.covered)}}
	for _, n := range names {
		s := a.stats[n]
		snap := s.hdr.Snapshot()
		out = append(out, kv{n, map[string]float64{
			"calls": float64(s.n), "self": ms(s.self),
			"p50": snap.Quantile(0.5) * 1e3, "p99": snap.Quantile(0.99) * 1e3,
		}})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// writeSpans dumps the traced window's spans as JSON lines once the run
// has ended.
func writeSpans(path string, spans []trace.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
