// Package selftest implements the §3.4 component-focused stress tests the
// authors wrote to explain why the X-Gene 2 fails differently from the
// Itanium parts of earlier studies: cache tests that fill the arrays and
// flip every bit of each block looking for cell errors, and ALU/FPU tests
// that hammer the execution units with concurrent random-value operations
// to stress the long timing paths.
//
// Running them through the characterization framework localizes the
// failure source: on the X-Gene model the ALU/FPU tests produce SDCs and
// crash at much higher voltages than the cache tests, demonstrating that
// the part is timing-path limited, not SRAM-cell limited.
package selftest

import (
	"math"
	"slices"

	"xvolt/internal/core"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// kernelCacheMarch fills a cache-sized array, flips all bits of each block
// and verifies them — a march test over the data arrays with almost no
// arithmetic.
func kernelCacheMarch(size int, inj workload.Injector) uint64 {
	blocks := 64 + size/8
	const blockWords = 8 // a 64-byte line
	arr := make([]uint64, blocks*blockWords)
	for i := range arr {
		arr[i] = 0xAAAAAAAAAAAAAAAA
	}
	h := uint64(0x5e1f)
	for b := 0; b < blocks; b++ {
		// March element: read, complement, write back, verify.
		var acc uint64
		for w := 0; w < blockWords; w++ {
			v := arr[b*blockWords+w]
			v = ^v
			arr[b*blockWords+w] = v
			acc ^= v
		}
		acc = inj.Word(acc)
		h = workload.Fold(h, acc)
	}
	return h
}

// kernelALUStress performs dependent chains of random-value integer
// operations — multiply, add, rotate, compare — keeping the integer
// datapath's critical paths toggling.
func kernelALUStress(size int, inj workload.Injector) uint64 {
	x := uint64(0x0123456789abcdef)
	y := uint64(0xfedcba9876543210)
	h := uint64(0xa1)
	iters := 64 + size
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		y ^= x >> 17
		y = y<<13 | y>>51
		if x > y {
			x -= y / 3
		} else {
			x += y | 1
		}
		x = inj.Word(x)
		h = workload.Fold(h, x^y)
	}
	return h
}

// kernelFPUStress performs dependent chains of random-value floating-point
// operations — multiply-add, divide, square root — stressing the FP
// pipeline's longest paths.
func kernelFPUStress(size int, inj workload.Injector) uint64 {
	a, b := 1.2345678, 0.87654321
	h := uint64(0xf9)
	iters := 64 + size
	for i := 0; i < iters; i++ {
		a = a*b + 0.5
		b = math.Sqrt(a) / (b + 0.25)
		if a > 1e6 {
			a = math.Mod(a, 997.0) + 1
		}
		a = inj.F64(a)
		h = workload.FoldF64(h, a+b)
	}
	return h
}

// Tests returns the three §3.4 component stress tests as runnable specs.
// The profiles are component extremes; the scores reflect where each
// test's safe point sits: the cache test is SRAM-floor limited (score far
// below the SPEC range) while the ALU/FPU tests match the most demanding
// timing-path stress. The specs are built once, so each golden output is
// computed once per process; the slice is the caller's own.
func Tests() []*workload.Spec { return slices.Clone(tests) }

var tests = []*workload.Spec{
	{
		Name: "selftest-cache", Input: "march", Size: 256,
		Kernel:  kernelCacheMarch,
		Profile: silicon.StressProfile{Pipeline: 0.05, FPU: 0, Memory: 1.0, Branch: 0.2, ILP: 0.2},
		// Essentially no timing-path stress: the SRAM array floor is
		// strictly the limiter, so failures come through the ECC path.
		Score: 0.0,
	},
	{
		Name: "selftest-alu", Input: "random-ops", Size: 256,
		Kernel:  kernelALUStress,
		Profile: silicon.StressProfile{Pipeline: 1.0, FPU: 0.05, Memory: 0.05, Branch: 0.35, ILP: 0.95},
		Score:   1.00,
	},
	{
		Name: "selftest-fpu", Input: "random-ops", Size: 256,
		Kernel:  kernelFPUStress,
		Profile: silicon.StressProfile{Pipeline: 0.55, FPU: 1.0, Memory: 0.05, Branch: 0.25, ILP: 0.9},
		Score:   0.95,
	},
}

// Finding is the §3.4 localization result for one component test.
type Finding struct {
	Test      string
	SafeVmin  units.MilliVolts
	CrashVmax units.MilliVolts
	// SDCFirst reports whether the first abnormal step contains SDCs
	// (timing-path signature) rather than only ECC events (array
	// signature).
	SDCFirst bool
	// SawCE reports whether ECC corrected errors appeared anywhere.
	SawCE bool
}

// Localize runs the three component tests through the characterization
// campaign engine on one core and reports the findings. The engine's
// workers sweep clones of m; m itself is left untouched. The expected
// X-Gene picture: ALU/FPU tests fail high with SDCs first; the cache test
// keeps working far lower and fails through the ECC path.
func Localize(m *xgene.Machine, coreID int, runs int) ([]Finding, error) {
	cfg := core.DefaultConfig(Tests(), []int{coreID})
	cfg.Runs = runs
	cfg.StopVoltage = 760 // the cache test survives far below the SPEC floor
	results, err := core.NewLadderRunner(m.Clone).Characterize(cfg)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, r := range results {
		f := Finding{Test: r.Benchmark}
		if v, ok := r.SafeVmin(); ok {
			f.SafeVmin = v
		}
		if v, ok := r.CrashVoltage(); ok {
			f.CrashVmax = v
		}
		if obs, ok := r.FirstAbnormalEffects(); ok {
			f.SDCFirst = obs.SDC
		}
		for _, s := range r.Steps {
			if s.Tally.CE > 0 {
				f.SawCE = true
			}
		}
		out = append(out, f)
	}
	return out, nil
}
