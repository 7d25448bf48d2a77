package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// sameSample reports whether a lookup read agrees with a Snapshot entry:
// both absent, or both present with the same value (NaN equal to NaN).
func sameSample(v float64, ok bool, want float64, wantOK bool) bool {
	if ok != wantOK {
		return false
	}
	return !ok || v == want || (math.IsNaN(v) && math.IsNaN(want))
}

// probeKeys returns every Snapshot key, extra, and near misses of each
// key: cut short, overlong, with a summary suffix added, and stripped of
// its labels.
func probeKeys(snap map[string]float64, extra ...string) []string {
	keys := append([]string(nil), extra...)
	for k := range snap {
		name, _, _ := strings.Cut(k, "{")
		keys = append(keys, k, k[:len(k)-1], k+"}", k+"_sum", k+"_count",
			name, name+"{}", name+`{quantile="0.5"}`, strings.Replace(k, `"`, `\"`, 1))
	}
	return keys
}

// checkLookup fails the test wherever lookup disagrees with Snapshot.
func checkLookup(t *testing.T, r *Registry, extra ...string) {
	t.Helper()
	snap := r.Snapshot()
	for _, k := range probeKeys(snap, extra...) {
		v, ok := r.lookup(k).read()
		want, wantOK := snap[k]
		if !sameSample(v, ok, want, wantOK) {
			t.Errorf("lookup(%q) = %v, %v; Snapshot holds %v, %v", k, v, ok, want, wantOK)
		}
	}
}

// TestLookupMatchesSnapshot: every rendered key, absent key and
// malformed key reads through lookup as Snapshot holds it, where two
// families render one key too: a counter foo_sum beside a summary foo
// keeps the counter, as Snapshot does, and a summary foo_count's
// quantiles beside a summary vec foo labeled by quantile.
func TestLookupMatchesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h").Add(7)
	r.GaugeVec("b", "h", "k").With(`x"y\z` + "\n").Set(-2)
	r.GaugeVec("b", "h", "k").With("").Set(4)
	foo := r.HDR("foo", "h", HDROpts{})
	foo.Observe(0.5)
	foo.Observe(2)
	r.Counter("foo_sum", "h").Add(11)
	fv := r.HDRVec("vec", "h", HDROpts{}, "quantile")
	fv.With("0.5").Observe(3)
	fv.With("") // no observations: NaN quantiles
	r.HDR("vec_count", "h", HDROpts{}).Observe(1)
	r.CounterVec("vec_sum", "h", "quantile").With("0.9").Add(5)

	snap := r.Snapshot()
	if got := snap["foo_sum"]; got != 11 {
		t.Fatalf("Snapshot foo_sum = %v, want the counter's 11", got)
	}
	if v, ok := r.lookup("foo_sum").read(); !ok || v != 11 {
		t.Errorf("lookup(foo_sum) = %v, %v, want the counter's 11", v, ok)
	}
	if v, ok := r.lookup("foo_count").read(); !ok || v != 2 {
		t.Errorf("lookup(foo_count) = %v, %v, want the summary's 2", v, ok)
	}
	checkLookup(t, r, "", "{", "}", "nope", `b{k=""`, `b{k=""}x`, `vec{quantile="0.5",quantile="0.5"}`)

	var nilReg *Registry
	if v, ok := nilReg.lookup("a_total").read(); ok {
		t.Errorf("nil registry lookup = %v, present", v)
	}
}

// Fuzz vocabulary: a few names that extend one another by a summary
// suffix, and label names and values that need escaping or look like a
// rendered quantile.
var (
	fuzzNames       = []string{"foo", "foo_sum", "foo_count", "foo_sum_count", "foo_sum_sum", "bar_total", "q"}
	fuzzLabelNames  = []string{"k", "quantile", "route"}
	fuzzLabelValues = []string{"", "a", `a"b`, `a\b`, "a\nb", "0.5", `",quantile="0.5`, "}", "{x", "é"}
)

// fuzzRegistry applies a byte program to a registry: each 4-byte op
// picks an instrument kind, a name, a label name and value, and a
// number. An op whose name is already registered with another shape is
// skipped (re-registering it would panic by design).
func fuzzRegistry(r *Registry, shapes map[string]string, prog []byte, value string) {
	values := append(fuzzLabelValues[:len(fuzzLabelValues):len(fuzzLabelValues)], value)
	for ; len(prog) >= 4; prog = prog[4:] {
		op, name := int(prog[0]%6), fuzzNames[int(prog[1])%len(fuzzNames)]
		label := fuzzLabelNames[int(prog[2])%len(fuzzLabelNames)]
		lv := values[int(prog[2])/len(fuzzLabelNames)%len(values)]
		x := float64(prog[3])
		if op == 0 || op == 1 || op == 4 {
			label = "" // a single instrument
		}
		shape := [...]string{"counter", "gauge", "counter", "gauge", "summary", "summary"}[op] + "/" + label
		if s, ok := shapes[name]; ok && s != shape {
			continue
		}
		shapes[name] = shape
		switch op {
		case 0:
			r.Counter(name, "h").Add(x)
		case 1:
			r.Gauge(name, "h").Set(x - 128)
		case 2:
			r.CounterVec(name, "h", label).With(lv).Add(x)
		case 3:
			r.GaugeVec(name, "h", label).With(lv).Set(x - 128)
		case 4:
			r.HDR(name, "h", HDROpts{}).Observe(x / 16)
		case 5:
			r.HDRVec(name, "h", HDROpts{}, label).With(lv).Observe(x / 16)
		}
	}
}

// FuzzAlertLookup is the differential test of the alert engine's key
// lookup against Registry.Snapshot, on registries built from fuzz
// input: every rendered key, absent and malformed keys, and the fuzzed
// key itself read through lookup as Snapshot holds them. Through the
// engine, one threshold and one absence rule per probed key must see
// what a Snapshot taken before each Eval holds, also after the second
// half of the program registers families and children after the rules.
func FuzzAlertLookup(f *testing.F) {
	f.Add([]byte{4, 0, 0, 8, 0, 1, 0, 11}, "foo_sum")
	f.Add([]byte{5, 0, 1, 8, 2, 2, 4, 3, 2, 1, 7, 1}, `foo_sum{quantile="0.5"}`)
	f.Add([]byte{3, 6, 6, 200, 3, 6, 9, 1, 4, 4, 0, 0, 5, 5, 30, 2}, `q{k="a\"b"}`)
	f.Add([]byte{2, 5, 0, 1, 2, 5, 3, 2, 0, 3, 0, 9, 4, 2, 0, 64}, "xvolt_alert_firing{rule=\"v0\"}")
	f.Fuzz(func(t *testing.T, prog []byte, key string) {
		r := NewRegistry()
		shapes := map[string]string{}
		half := len(prog) / 8 * 4
		fuzzRegistry(r, shapes, prog[:half], key)
		checkLookup(t, r, key)

		e := NewAlertEngine(r, nil)
		var keys []string
		for _, k := range probeKeys(r.Snapshot(), key) {
			if k != "" { // a rule needs a metric
				keys = append(keys, k)
			}
		}
		for i, k := range keys {
			if err := e.Add(
				Rule{Name: "v" + strconv.Itoa(i), Metric: k, Op: CmpGE, Threshold: 1},
				Rule{Name: "a" + strconv.Itoa(i), Metric: k, Kind: RuleAbsence},
			); err != nil {
				t.Fatal(err)
			}
		}
		checkEval := func() {
			t.Helper()
			snap := r.Snapshot()
			alerts := e.Eval()
			byName := map[string]Alert{}
			for _, a := range alerts {
				byName[a.Rule] = a
			}
			for i, k := range keys {
				want, ok := snap[k]
				v, a := byName["v"+strconv.Itoa(i)], byName["a"+strconv.Itoa(i)]
				if !ok {
					want = math.NaN()
				}
				if !sameSample(v.Value, true, want, true) || (a.Value == 0) != ok {
					t.Errorf("key %q: rule value %v, absence %v; Snapshot holds %v, %v", k, v.Value, a.Value, want, ok)
				}
			}
		}
		checkEval()
		fuzzRegistry(r, shapes, prog[half:], key)
		checkEval()
		checkLookup(t, r, key)
	})
}

// TestAlertEvalConcurrentGrowth: evaluations running while another
// goroutine adds children to the registry resolve each new series no
// later than the first Eval after it was added, and race with nothing.
func TestAlertEvalConcurrentGrowth(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("c_total", "h", "k")
	e := NewAlertEngine(r, nil)
	const n = 200
	if err := e.Add(Rule{Name: "last", Metric: `c_total{k="` + strconv.Itoa(n-1) + `"}`, Op: CmpGE, Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			vec.With(strconv.Itoa(i)).Inc()
		}
	}()
	for i := 0; i < n; i++ {
		e.Eval()
	}
	<-done
	if a := e.Eval()[0]; a.Value != 1 || a.State != AlertFiring {
		t.Errorf("after the series appeared: %+v, want value 1, firing", a)
	}
}
