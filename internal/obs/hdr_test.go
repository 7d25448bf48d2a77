package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestHDRDefaults(t *testing.T) {
	o := HDROpts{}.withDefaults()
	if o.Min != 1e-6 || o.SubBuckets != 32 {
		t.Fatalf("defaults = %+v", o)
	}
	if o.Max <= 99 || o.Max >= 102 {
		t.Errorf("default Max = %v, want ≈100", o.Max)
	}
	if got := o.RelativeError(); math.Abs(got-0.0109) > 0.0005 {
		t.Errorf("RelativeError = %v, want ≈1.09%%", got)
	}
}

func TestHDRBucketIndex(t *testing.T) {
	h := NewHDR(HDROpts{Min: 1, Max: 16, SubBuckets: 2})
	// Layout: bucket i covers [2^(i/2), 2^((i+1)/2)).
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{0.5, 0}, // underflow clamps to the first bucket
		{1, 0},   // == Min
		{1.2, 0}, // < 2^0.5
		{1.5, 1}, // [2^0.5, 2)
		{2, 2},   // [2, 2^1.5)
		{4, 4},   // [4, …)
		{100, 8}, // overflow clamps to the last bucket
		{-3, 0},  // negative clamps down
	} {
		if got := h.bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestHDRCountSumMinMax(t *testing.T) {
	h := NewHDR(HDROpts{})
	for _, v := range []float64{0.003, 0.001, 0.002, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3 (NaN ignored)", h.Count())
	}
	if math.Abs(h.Sum()-0.006) > 1e-12 {
		t.Errorf("Sum = %v, want 0.006", h.Sum())
	}
	s := h.Snapshot()
	if s.Min != 0.001 || s.Max != 0.003 {
		t.Errorf("extremes = [%v, %v], want [0.001, 0.003]", s.Min, s.Max)
	}
	if math.Abs(s.Mean()-0.002) > 1e-12 {
		t.Errorf("Mean = %v, want 0.002", s.Mean())
	}
}

func TestHDREmptyQuantiles(t *testing.T) {
	h := NewHDR(HDROpts{})
	if q := h.Snapshot().Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty quantile = %v, want NaN", q)
	}
	var s HDRSnapshot
	if q := s.Quantile(0.99); !math.IsNaN(q) {
		t.Errorf("zero-snapshot quantile = %v, want NaN", q)
	}
	if q := NewHDR(HDROpts{}).Snapshot().Quantile(2); !math.IsNaN(q) {
		t.Errorf("out-of-range q = %v, want NaN", q)
	}
	var nilH *HDR
	nilH.Observe(1) // must not panic
	if nilH.Count() != 0 || !math.IsNaN(nilH.Snapshot().Quantile(0.5)) {
		t.Error("nil HDR not inert")
	}
}

// The acceptance bound: every estimated quantile lies within
// Opts.RelativeError() of the exact sample percentile, across a
// log-uniform population spanning five decades.
func TestHDRQuantileAccuracy(t *testing.T) {
	opts := HDROpts{}
	h := NewHDR(opts)
	rng := rand.New(rand.NewSource(7))
	n := 20000
	samples := make([]float64, n)
	for i := range samples {
		// Log-uniform over [100 µs, 10 s].
		v := 1e-4 * math.Pow(10, 5*rng.Float64())
		samples[i] = v
		h.Observe(v)
	}
	sort.Float64s(samples)
	s := h.Snapshot()
	bound := opts.RelativeError()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(math.Ceil(q*float64(n)))-1]
		est := s.Quantile(q)
		if rel := math.Abs(est-exact) / exact; rel > bound {
			t.Errorf("q=%v: est %v vs exact %v, rel err %.4f > bound %.4f",
				q, est, exact, rel, bound)
		}
	}
}

// Merging per-shard snapshots must agree exactly with one histogram that
// saw every sample — the loadgen per-client merge in miniature.
func TestHDRMergeEquivalence(t *testing.T) {
	opts := HDROpts{Min: 1e-5, Max: 10, SubBuckets: 16}
	whole := NewHDR(opts)
	shards := []*HDR{NewHDR(opts), NewHDR(opts), NewHDR(opts)}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		v := 1e-4 * math.Pow(10, 4*rng.Float64())
		whole.Observe(v)
		shards[i%len(shards)].Observe(v)
	}
	var merged HDRSnapshot
	for _, sh := range shards {
		if err := merged.Merge(sh.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	want := whole.Snapshot()
	if merged.Count != want.Count || merged.Min != want.Min || merged.Max != want.Max {
		t.Fatalf("merged header %+v vs whole %+v", merged, want)
	}
	if math.Abs(merged.Sum-want.Sum) > 1e-9*want.Sum {
		t.Errorf("merged Sum = %v, want %v", merged.Sum, want.Sum)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if a, b := merged.Quantile(q), want.Quantile(q); a != b {
			t.Errorf("q=%v: merged %v != whole %v", q, a, b)
		}
	}
}

func TestHDRMergeLayoutMismatch(t *testing.T) {
	a := NewHDR(HDROpts{Min: 1e-6}).Snapshot()
	b := NewHDR(HDROpts{Min: 1e-3, Max: 10, SubBuckets: 8})
	b.Observe(1)
	s := a
	if err := s.Merge(b.Snapshot()); err == nil {
		t.Error("merging incompatible layouts did not error")
	}
	// Merging an empty snapshot is always fine, whatever its layout.
	if err := s.Merge(HDRSnapshot{}); err != nil {
		t.Errorf("merging empty snapshot: %v", err)
	}
}

func TestHDRQuantileClampsToObserved(t *testing.T) {
	h := NewHDR(HDROpts{})
	h.Observe(0.01)
	s := h.Snapshot()
	// One sample: every quantile is that sample, exactly — the midpoint
	// estimate clamps to the observed extremes.
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 0.01 {
			t.Errorf("Quantile(%v) = %v, want exactly 0.01", q, got)
		}
	}
}

func TestHDRConcurrentObserve(t *testing.T) {
	h := NewHDR(HDROpts{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w+1) * 1e-3)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
	s := h.Snapshot()
	if s.Min != 1e-3 || s.Max != 8e-3 {
		t.Errorf("extremes = [%v, %v]", s.Min, s.Max)
	}
}

func TestRegistryHDRSummaryExposition(t *testing.T) {
	r := NewRegistry()
	h := r.HDR("xvolt_poll_seconds", "Poll wall time.", HDROpts{})
	for i := 0; i < 100; i++ {
		h.Observe(0.010)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE xvolt_poll_seconds summary",
		`xvolt_poll_seconds{quantile="0.5"} 0.01`,
		`xvolt_poll_seconds{quantile="0.999"} 0.01`,
		"xvolt_poll_seconds_sum 1",
		"xvolt_poll_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Labeled family: quantile label renders after the family labels, and
	// label values escape exactly like every other instrument.
	hv := r.HDRVec("xvolt_req_seconds", "h", HDROpts{}, "route")
	hv.With("a\"b\\c\nd").Observe(0.5)
	b.Reset()
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `xvolt_req_seconds{route="a\"b\\c\nd",quantile="0.9"} 0.5`) {
		t.Errorf("labeled summary escaping wrong:\n%s", b.String())
	}

	// The snapshot map mirrors the exposition keys.
	snap := r.Snapshot()
	if got := snap[`xvolt_poll_seconds{quantile="0.5"}`]; got != 0.01 {
		t.Errorf("snapshot quantile = %v, want 0.01", got)
	}
	if got := snap["xvolt_poll_seconds_count"]; got != 100 {
		t.Errorf("snapshot count = %v, want 100", got)
	}
}

func TestRegistryHDRLayoutMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.HDR("dup_seconds", "h", HDROpts{})
	defer func() {
		if recover() == nil {
			t.Error("re-registering with a different layout did not panic")
		}
	}()
	r.HDR("dup_seconds", "h", HDROpts{Min: 1, Max: 2, SubBuckets: 1})
}
