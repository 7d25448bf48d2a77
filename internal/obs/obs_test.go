package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-4)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x_total", "h") != r.Counter("x_total", "h") {
		t.Error("same name did not return the same counter")
	}
	v := r.CounterVec("y_total", "h", "class")
	if v.With("SDC") != v.With("SDC") {
		t.Error("same label values did not return the same child")
	}
	if v.With("SDC") == v.With("SC") {
		t.Error("distinct label values shared a child")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name", "h")
}

// Everything is inert on nil receivers so unmetered components need no
// conditionals at instrumentation sites.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "h")
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Error("nil counter not inert")
	}
	g := r.Gauge("g", "h")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge not inert")
	}
	h := r.HDR("h_seconds", "h", HDROpts{})
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram not inert")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Counts != nil {
		t.Error("nil histogram snapshot not empty")
	}
	cv := r.CounterVec("cv_total", "h", "l")
	cv.With("x").Inc()
	gv := r.GaugeVec("gv", "h", "l")
	gv.With("x").Set(1)
	hv := r.HDRVec("hv_seconds", "h", HDROpts{}, "l")
	hv.With("x").Observe(1)
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	if err := r.WriteProm(nil); err != nil {
		t.Errorf("nil registry WriteProm err = %v", err)
	}
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("v_total", "h", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

// The registry's whole point is being pounded from campaign goroutines;
// run a parallel mix of every operation under -race and check totals.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const goroutines, iters = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("par_total", "h")
			vec := r.CounterVec("par_vec_total", "h", "who")
			h := r.HDR("par_seconds", "h", HDROpts{})
			gauge := r.Gauge("par_gauge", "h")
			for i := 0; i < iters; i++ {
				c.Inc()
				vec.With("a").Inc()
				vec.With("b").Add(2)
				h.Observe(float64(i%2) + 0.25)
				gauge.Set(float64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	const n = goroutines * iters
	snap := r.Snapshot()
	if got := snap["par_total"]; got != n {
		t.Errorf("par_total = %v, want %d", got, n)
	}
	if got := snap[`par_vec_total{who="a"}`]; got != n {
		t.Errorf("vec a = %v, want %d", got, n)
	}
	if got := snap[`par_vec_total{who="b"}`]; got != 2*n {
		t.Errorf("vec b = %v, want %d", got, 2*n)
	}
	if got := snap["par_seconds_count"]; got != n {
		t.Errorf("histogram count = %v, want %d", got, n)
	}
	if got := snap["par_seconds_sum"]; got != n*0.75 {
		t.Errorf("histogram sum = %v, want %v", got, n*0.75)
	}
	// Half the samples are 0.25 and half 1.25: the median sits on the low
	// value and p90 on the high one, each within the layout's error bound.
	tol := HDROpts{}.RelativeError()
	for key, want := range map[string]float64{
		`par_seconds{quantile="0.5"}`: 0.25,
		`par_seconds{quantile="0.9"}`: 1.25,
	} {
		if got := snap[key]; math.Abs(got-want) > want*tol {
			t.Errorf("%s = %v, want %v ± %.2f%%", key, got, want, tol*100)
		}
	}
}
