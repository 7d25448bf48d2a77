// Package stressmark implements automated worst-case workload generation
// in the spirit of the di/dt-stressmark literature the paper builds on
// (Ketkar & Chiprout; Kim et al., AUDIT — §7): a randomized hill-climbing
// search over the microarchitectural stress space for the workload that
// demands the highest safe voltage on a given core.
//
// A guardband chosen from benchmark characterization alone is only safe
// for workloads no worse than the benchmarks; the stressmark bounds the
// exposure by approximating the true worst case. The found profile is
// materialized as a runnable Spec whose kernel mixes integer, floating-
// point, memory and branch work in the profile's proportions, so the
// framework can characterize it like any benchmark.
package stressmark

import (
	"math"
	"math/rand"

	"xvolt/internal/randsrc"
	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
)

// Result is the outcome of a stressmark search.
type Result struct {
	// Profile is the worst-case stress signature found.
	Profile silicon.StressProfile
	// PredictedVmin is the silicon model's safe Vmin for it.
	PredictedVmin units.MilliVolts
	// Iterations is how many candidate evaluations the search spent.
	Iterations int
}

// Options tune the search.
type Options struct {
	// Iterations bounds candidate evaluations (default 400).
	Iterations int
	// Restarts is the number of random restarts (default 4).
	Restarts int
	// Seed drives the search.
	Seed int64
}

func (o Options) normalize() Options {
	if o.Iterations <= 0 {
		o.Iterations = 400
	}
	if o.Restarts <= 0 {
		o.Restarts = 4
	}
	return o
}

// clamp01 bounds x into [0, 1].
func clamp01(x float64) float64 {
	return math.Max(0, math.Min(1, x))
}

// perturb jitters one random profile dimension.
func perturb(rng *rand.Rand, p silicon.StressProfile, scale float64) silicon.StressProfile {
	d := (rng.Float64()*2 - 1) * scale
	switch rng.Intn(5) {
	case 0:
		p.Pipeline = clamp01(p.Pipeline + d)
	case 1:
		p.FPU = clamp01(p.FPU + d)
	case 2:
		p.Memory = clamp01(p.Memory + d)
	case 3:
		p.Branch = clamp01(p.Branch + d)
	default:
		p.ILP = clamp01(p.ILP + d)
	}
	return p
}

// Search hill-climbs (with restarts) toward the profile maximizing the
// safe Vmin on (chip, core) at full speed. The search treats the chip as
// a black-box oracle — exactly how a measurement-driven stressmark
// campaign uses real hardware.
func Search(chip *silicon.Chip, coreID int, opt Options) Result {
	opt = opt.normalize()
	rng := randsrc.New(opt.Seed)
	eval := func(p silicon.StressProfile) units.MilliVolts {
		return chip.Assess(coreID, p, 0, units.RegimeFull).SafeVmin
	}
	best := Result{}
	perRestart := opt.Iterations / opt.Restarts
	for restart := 0; restart < opt.Restarts; restart++ {
		cur := silicon.StressProfile{
			Pipeline: rng.Float64(), FPU: rng.Float64(), Memory: rng.Float64(),
			Branch: rng.Float64(), ILP: rng.Float64(),
		}
		curV := eval(cur)
		best.Iterations++
		if curV > best.PredictedVmin {
			best.PredictedVmin, best.Profile = curV, cur
		}
		scale := 0.30
		for i := 0; i < perRestart; i++ {
			cand := perturb(rng, cur, scale)
			candV := eval(cand)
			best.Iterations++
			if candV >= curV {
				cur, curV = cand, candV
				if candV > best.PredictedVmin {
					best.PredictedVmin, best.Profile = candV, cand
				}
			}
			// Cool the step size over the restart's budget.
			scale = 0.30 * (1 - float64(i)/float64(perRestart)*0.8)
		}
	}
	return best
}

// BuildSpec materializes a profile as a runnable benchmark whose kernel
// mixes work in the profile's proportions. The Score is the profile's
// counter-visible stress (the stressmark has no hidden idiosyncrasy: it
// is constructed, not measured).
func BuildSpec(name string, p silicon.StressProfile, size int) *workload.Spec {
	return &workload.Spec{
		Name:    name,
		Input:   "generated",
		Size:    size,
		Profile: p,
		Score:   p.Visible(),
		Kernel:  mixKernel(p),
	}
}

// mixKernel builds a kernel interleaving integer, floating-point, memory
// and branch work according to the profile weights.
func mixKernel(p silicon.StressProfile) workload.Kernel {
	// Freeze the mix proportions at construction.
	intShare := 0.2 + 0.8*p.Pipeline
	fpShare := p.FPU
	memShare := p.Memory
	brShare := p.Branch
	return func(size int, inj workload.Injector) uint64 {
		mem := make([]uint64, 1024)
		for i := range mem {
			mem[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		}
		x := uint64(0x243f6a8885a308d3)
		f := 1.618033988749
		h := uint64(0x57e55)
		iters := 64 + size
		for i := 0; i < iters; i++ {
			step := float64(i%97) / 97
			if step < intShare {
				x = x*6364136223846793005 + 1442695040888963407
				x ^= x >> 29
			}
			if step < fpShare {
				f = f*1.0001 + 0.5/f
				if f > 1e6 {
					f = 1.5
				}
			}
			if step < memShare {
				idx := x % uint64(len(mem))
				mem[idx] ^= x
				x += mem[(idx*7+13)%uint64(len(mem))]
			}
			if step < brShare {
				if x&0x80 != 0 {
					x = x<<3 | x>>61
				} else if x&0x40 != 0 {
					x -= 0x1234
				} else {
					x += 0x4321
				}
			}
			x = inj.Word(x)
			h = workload.Fold(h, x^math.Float64bits(f))
		}
		return h
	}
}
