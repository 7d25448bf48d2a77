// HDR-style latency histograms: log-bucketed distributions with
// configurable precision, lock-free recording, mergeable snapshots and
// quantile estimation — the registry's only distribution instrument,
// behind every latency surface in the framework (HTTP request
// durations, fleet poll times, campaign and watchdog-recovery times,
// loadgen reports).
//
// The bucket layout is logarithmic with SubBuckets buckets per octave
// (factor-of-two range), so every bucket spans a fixed *relative* width
// of 2^(1/SubBuckets). A quantile estimated at a bucket's geometric
// midpoint is therefore within a relative error of
//
//	ε = 2^(1/(2·SubBuckets)) − 1
//
// of the true sample value (≈1.09 % at the default 32 sub-buckets per
// octave), independent of where in the range the value falls — the HDR
// property that fixed-bound buckets lack. Memory is a flat counter
// array: log2(Max/Min)·SubBuckets counters (≈860 for the default
// 1 µs … 100 s range).
package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// HDROpts sizes an HDR histogram. The zero value takes the defaults:
// 1 µs … 100 s tracked range, 32 sub-buckets per octave (≈1.09 % max
// relative quantile error).
type HDROpts struct {
	// Min is the smallest distinguishable value; everything at or below
	// it lands in the first bucket (default 1e-6, i.e. 1 µs for
	// seconds-valued histograms).
	Min float64
	// Max is the largest tracked value; larger observations clamp into
	// the final bucket (default 100).
	Max float64
	// SubBuckets is the bucket count per octave — the precision knob
	// (default 32).
	SubBuckets int
}

// withDefaults fills unset fields and repairs invalid shapes.
func (o HDROpts) withDefaults() HDROpts {
	if o.Min <= 0 {
		o.Min = 1e-6
	}
	if o.Max <= o.Min {
		o.Max = o.Min * math.Pow(2, 26.6) // ≈ the default 1µs…100s span
	}
	if o.SubBuckets <= 0 {
		o.SubBuckets = 32
	}
	return o
}

// RelativeError returns the documented worst-case relative quantile
// error for this layout: 2^(1/(2·SubBuckets)) − 1.
func (o HDROpts) RelativeError() float64 {
	o = o.withDefaults()
	return math.Exp2(1/(2*float64(o.SubBuckets))) - 1
}

// numBuckets is the counter-array length for the layout.
func (o HDROpts) numBuckets() int {
	octaves := math.Log2(o.Max / o.Min)
	return int(math.Ceil(octaves*float64(o.SubBuckets))) + 1
}

// HDR is a log-bucketed high-dynamic-range histogram. Construct with
// NewHDR or through a Registry; a nil *HDR is inert. All methods are
// safe for concurrent use; Observe is lock-free.
type HDR struct {
	opts    HDROpts
	counts  []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
	minSeen atomic.Uint64 // float64 bits; +Inf until first observation
	maxSeen atomic.Uint64 // float64 bits; -Inf until first observation
}

// NewHDR returns an HDR histogram with the given layout (zero opts take
// the defaults).
func NewHDR(opts HDROpts) *HDR {
	opts = opts.withDefaults()
	h := &HDR{opts: opts, counts: make([]atomic.Uint64, opts.numBuckets())}
	h.minSeen.Store(math.Float64bits(math.Inf(+1)))
	h.maxSeen.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a value into the layout: bucket i covers
// [Min·2^(i/sub), Min·2^((i+1)/sub)), with the first and last buckets
// absorbing underflow and overflow.
func (h *HDR) bucketIndex(v float64) int {
	if v <= h.opts.Min {
		return 0
	}
	idx := int(math.Log2(v/h.opts.Min) * float64(h.opts.SubBuckets))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	return idx
}

// Observe records one sample. NaN is ignored; negative values clamp to
// the first bucket. Nil-safe, lock-free.
//
//xvolt:hotpath recorded on every run; must stay allocation-free
func (h *HDR) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
	casFloatMin(&h.minSeen, v)
	casFloatMax(&h.maxSeen, v)
}

// casFloatMin lowers a float64-bits cell to v if v is smaller.
func casFloatMin(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// casFloatMax raises a float64-bits cell to v if v is larger.
func casFloatMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations. Nil-safe (0).
//
//xvolt:lint-ignore unusedexport frozen perfbench reads the fleet poll histogram's count through it (ROADMAP item 1)
func (h *HDR) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations. Nil-safe (0).
func (h *HDR) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Snapshot captures a consistent-enough copy of the histogram for
// merging and quantile estimation. (Counts are read bucket-by-bucket
// without a global lock; concurrent observers can skew a snapshot by at
// most the handful of in-flight samples, which is inside the quantile
// error bound for any realistic population.) Nil-safe (zero snapshot).
func (h *HDR) Snapshot() HDRSnapshot {
	if h == nil {
		return HDRSnapshot{}
	}
	s := HDRSnapshot{
		Opts:   h.opts,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
		Min:    math.Float64frombits(h.minSeen.Load()),
		Max:    math.Float64frombits(h.maxSeen.Load()),
	}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	// Keep Count consistent with the bucket sum even under concurrent
	// observers — quantile ranks index into Counts.
	s.Count = total
	return s
}

// HDRSnapshot is an immutable copy of an HDR histogram: mergeable across
// instruments with the same layout and queryable for quantiles.
type HDRSnapshot struct {
	Opts   HDROpts
	Counts []uint64
	Count  uint64
	Sum    float64
	Min    float64 // +Inf when empty
	Max    float64 // -Inf when empty
}

// Mean returns the exact sample mean (NaN when empty).
func (s HDRSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// Merge folds another snapshot into s. Both must share one bucket
// layout; merging incompatible layouts is an error (quantiles would be
// silently wrong).
func (s *HDRSnapshot) Merge(o HDRSnapshot) error {
	if o.Count == 0 && len(o.Counts) == 0 {
		return nil
	}
	if len(s.Counts) == 0 {
		// Merging into a zero snapshot adopts the other layout.
		s.Opts = o.Opts
		s.Counts = make([]uint64, len(o.Counts))
		s.Min = math.Inf(+1)
		s.Max = math.Inf(-1)
	}
	if s.Opts != o.Opts || len(s.Counts) != len(o.Counts) {
		return fmt.Errorf("obs: merging incompatible HDR layouts %+v and %+v", s.Opts, o.Opts)
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.Min = math.Min(s.Min, o.Min)
	s.Max = math.Max(s.Max, o.Max)
	return nil
}

// bucketMid returns bucket i's geometric midpoint — the quantile
// estimate for samples that landed there.
func (s HDRSnapshot) bucketMid(i int) float64 {
	return s.Opts.Min * math.Exp2((float64(i)+0.5)/float64(s.Opts.SubBuckets))
}

// Quantile estimates the q-quantile (q in [0, 1]). The estimate is the
// geometric midpoint of the bucket holding the rank-⌈q·n⌉ sample,
// clamped to the observed [Min, Max], so it is within
// Opts.RelativeError() of the true sample value. Empty snapshots and
// out-of-range q return NaN.
func (s HDRSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			est := s.bucketMid(i)
			// The observed extremes are exact; never estimate outside them.
			return math.Min(math.Max(est, s.Min), s.Max)
		}
	}
	return s.Max
}

// Quantiles evaluates several quantiles against one snapshot pass.
func (s HDRSnapshot) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = s.Quantile(q)
	}
	return out
}

// summaryQuantiles are the quantiles rendered in the Prometheus summary
// exposition and the Snapshot map.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// HDR returns the HDR histogram registered under name, creating it on
// first use with the given layout (zero opts take defaults). Exposed as
// a Prometheus summary with p50/p90/p99/p999 quantiles. Nil-safe.
func (r *Registry) HDR(name, help string, opts HDROpts) *HDR {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindSummary, nil, opts.withDefaults()).single.(*HDR)
}

// HDRVec is a labeled HDR family sharing one bucket layout.
type HDRVec struct{ fam *family }

// HDRVec returns the labeled HDR family under name. Nil-safe.
func (r *Registry) HDRVec(name, help string, opts HDROpts, labels ...string) *HDRVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: HDRVec %q needs at least one label", name))
	}
	return &HDRVec{fam: r.register(name, help, KindSummary, labels, opts.withDefaults())}
}

// With returns the child HDR for the label values. Nil-safe.
func (v *HDRVec) With(values ...string) *HDR {
	if v == nil {
		return nil
	}
	return v.fam.with(values).(*HDR)
}
