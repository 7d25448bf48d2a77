// Package counters models the X-Gene 2 performance monitoring unit: the
// 101 microarchitectural events the paper collects with perf (§4.1) while
// running each benchmark at nominal conditions.
//
// Event rates are derived from each workload's stress profile, so the five
// events the paper's RFE selects (§4.2) — dispatch-stall cycles, exceptions
// taken, memory read accesses, BTB mispredictions, and conditional/indirect
// branches — genuinely carry the information the severity regression needs,
// while the remaining 96 events are realistic mixtures that act as
// redundant or distracting features for feature selection to prune.
package counters

import (
	"fmt"
	"math"
	"math/rand"

	"xvolt/internal/silicon"
	"xvolt/internal/workload"
)

// NumEvents is the PMU event count of the X-Gene 2 (paper §4.1).
const NumEvents = 101

// Event indexes one PMU event.
type Event int

// The five events selected by RFE in the paper (§4.2), pinned to fixed
// indices with physically-motivated rate formulas.
const (
	DispatchStallCycles Event = 0
	ExceptionsTaken     Event = 1
	MemReadAccess       Event = 2
	BTBMispred          Event = 3
	BranchCondInd       Event = 4
)

// Selected lists the paper's five RFE-selected events.
var Selected = [5]Event{
	DispatchStallCycles, ExceptionsTaken, MemReadAccess, BTBMispred, BranchCondInd,
}

// names holds the event mnemonics. The first five are the RFE targets; the
// rest are ARMv8-PMU-style architectural and implementation-defined events.
var names = buildNames()

func buildNames() []string {
	base := []string{
		"DISPATCH_STALL_CYCLES", // 0
		"EXC_TAKEN",             // 1
		"MEM_ACCESS_RD",         // 2
		"BTB_MIS_PRED",          // 3
		"BR_COND_IND",           // 4
		"CPU_CYCLES",
		"INST_RETIRED",
		"INST_SPEC",
		"L1D_CACHE",
		"L1D_CACHE_REFILL",
		"L1D_CACHE_WB",
		"L1I_CACHE",
		"L1I_CACHE_REFILL",
		"L1D_TLB_REFILL",
		"L1I_TLB_REFILL",
		"L2D_CACHE",
		"L2D_CACHE_REFILL",
		"L2D_CACHE_WB",
		"L3D_CACHE",
		"L3D_CACHE_REFILL",
		"DTLB_WALK",
		"ITLB_WALK",
		"MEM_ACCESS_WR",
		"UNALIGNED_LDST_RETIRED",
		"BR_PRED",
		"BR_MIS_PRED",
		"BR_RETURN_RETIRED",
		"BR_INDIRECT_SPEC",
		"STALL_FRONTEND",
		"STALL_BACKEND",
		"OP_RETIRED",
		"OP_SPEC",
		"LD_RETIRED",
		"ST_RETIRED",
		"LDST_SPEC",
		"DP_SPEC",
		"ASE_SPEC",
		"VFP_SPEC",
		"PC_WRITE_SPEC",
		"CRYPTO_SPEC",
		"ISB_SPEC",
		"DSB_SPEC",
		"DMB_SPEC",
		"EXC_UNDEF",
		"EXC_SVC",
		"EXC_PABORT",
		"EXC_DABORT",
		"EXC_IRQ",
		"EXC_FIQ",
		"CID_WRITE_RETIRED",
		"TTBR_WRITE_RETIRED",
		"BUS_ACCESS",
		"BUS_CYCLES",
		"BUS_ACCESS_RD",
		"BUS_ACCESS_WR",
		"MEMORY_ERROR",
		"REMOTE_ACCESS",
		"PREFETCH_LINEFILL",
		"PREFETCH_LINEFILL_DROP",
		"READ_ALLOC_ENTER",
		"READ_ALLOC",
		"WRITE_STALL",
		"DECODE_STALL",
		"ISSUE_STALL",
	}
	out := make([]string, 0, NumEvents)
	out = append(out, base...)
	for i := len(base); i < NumEvents; i++ {
		out = append(out, fmt.Sprintf("IMP_DEF_0x%02X", 0x40+i-len(base)))
	}
	return out[:NumEvents]
}

// Name returns the event mnemonic.
func (e Event) Name() string {
	if e < 0 || int(e) >= NumEvents {
		return fmt.Sprintf("EVENT(%d)", int(e))
	}
	return names[e]
}

// Names returns all event mnemonics in index order.
func Names() []string { return append([]string(nil), names...) }

// Sample is one profiling measurement: a count for every PMU event.
type Sample []float64

// rate returns the per-instruction occurrence rate of event e for a stress
// profile. The five selected events use fixed formulas that make the
// profile dimensions linearly recoverable; all other events are
// deterministic pseudo-random mixtures (hashed per event), modeling the
// redundancy of a real PMU's event list.
func rate(e Event, p silicon.StressProfile) float64 {
	switch e {
	case DispatchStallCycles:
		return 0.75*p.Memory + 0.25*(1-p.ILP)
	case ExceptionsTaken:
		return 0.002 * (0.60*p.FPU + 0.15*p.Pipeline)
	case MemReadAccess:
		return 0.90*p.Memory + 0.10*p.Pipeline
	case BTBMispred:
		return 0.05 * (0.80*p.Branch + 0.20*(1-p.ILP))
	case BranchCondInd:
		return 0.20 * (0.70*p.Branch + 0.30*p.Pipeline)
	}
	// Hash-derived mixture in [0, ~2], stable per event index.
	h := uint64(e)*0x9e3779b97f4a7c15 + 0x85ebca6b
	coef := func(k uint) float64 {
		// Six hash lanes → coefficients in [-1, 1].
		v := (h >> (k * 10)) & 0x3ff
		return float64(v)/511.5 - 1
	}
	m := coef(0)*p.Pipeline + coef(1)*p.FPU + coef(2)*p.Memory +
		coef(3)*p.Branch + coef(4)*p.ILP + 0.4*coef(5)
	// Each program also has its own footprint in every event beyond the
	// five latent stress dimensions (instruction mix details, data layout,
	// phase structure): a deterministic per-(event, workload) component.
	m += 0.5 * perWorkload(h, p)
	return math.Abs(m) + 0.05
}

// perWorkload derives a stable pseudo-random value in [-1, 1] from the
// event hash and the exact profile bits (which identify the workload).
func perWorkload(eventHash uint64, p silicon.StressProfile) float64 {
	k := eventHash
	for _, f := range [...]float64{p.Pipeline, p.FPU, p.Memory, p.Branch, p.ILP} {
		k ^= math.Float64bits(f)
		k *= 0x100000001b3
		k ^= k >> 29
	}
	return float64(k&0xfffff)/float64(0x7ffff) - 1
}

// magnitude gives each event a realistic absolute count scale (log-uniform
// between ~1e3 and ~1e8 per run), stable per event index.
func magnitude(e Event) float64 {
	switch e {
	case DispatchStallCycles, MemReadAccess, BranchCondInd:
		return 1e7
	case ExceptionsTaken:
		return 1e4
	case BTBMispred:
		return 1e6
	}
	h := (uint64(e)*0xbf58476d1ce4e5b9 ^ 0x94d049bb) % 1000
	return math.Pow(10, 3+5*float64(h)/999)
}

// Measurement noise. The five selected events count architecturally
// well-defined occurrences and are highly repeatable; most other events
// (speculative counts, bus/prefetch activity, implementation-defined
// events) are noisier run to run — which is why RFE converges on the five
// clean ones (§4.2).
const (
	relNoiseSelected   = 0.01
	relNoiseDistractor = 0.06
)

// isSelected reports whether e is one of the five RFE-target events.
func isSelected(e Event) bool {
	for _, s := range Selected {
		if e == s {
			return true
		}
	}
	return false
}

// Measure profiles one benchmark at nominal conditions, returning counts
// for all 101 events. rng supplies the measurement noise; pass a
// fixed-seed RNG for reproducible profiles.
func Measure(s *workload.Spec, rng *rand.Rand) Sample {
	out := make(Sample, NumEvents)
	// Instruction volume grows with the input size.
	insts := 1e6 * (1 + float64(s.Size)/100)
	for e := Event(0); e < NumEvents; e++ {
		noise := relNoiseDistractor
		if isSelected(e) {
			noise = relNoiseSelected
		}
		v := rate(e, s.Profile) * magnitude(e) * insts / 1e6
		v *= 1 + rng.NormFloat64()*noise
		if v < 0 {
			v = 0
		}
		out[e] = v
	}
	return out
}

// MeasureSuite profiles a set of benchmarks, returning one Sample per spec
// in order.
func MeasureSuite(specs []*workload.Spec, rng *rand.Rand) []Sample {
	out := make([]Sample, len(specs))
	for i, s := range specs {
		out[i] = Measure(s, rng)
	}
	return out
}
