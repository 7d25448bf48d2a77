// The benchmark suite tables. Scores of the ten primary programs are
// calibrated so the silicon model reproduces the paper's Fig. 3
// most-robust-core Vmin values exactly (DESIGN.md §5); profiles are
// hand-assigned microarchitectural signatures. Across the whole suite the
// counter-visible stress is deliberately near-uncorrelated with the total
// score: the paper found that per-program Vmin cannot be predicted from
// performance counters (§4.3.1, R²≈0), so most of the program-to-program
// margin variation must live in the counter-invisible component (Idio).
package workload

import "xvolt/internal/silicon"

// sp is shorthand for building stress profiles in the tables below.
func sp(pipeline, fpu, mem, branch, ilp float64) silicon.StressProfile {
	return silicon.StressProfile{
		Pipeline: pipeline, FPU: fpu, Memory: mem, Branch: branch, ILP: ilp,
	}
}

// primaryNames lists the ten SPEC CPU2006 programs of Fig. 3/4/5, in the
// paper's order.
var primaryNames = []string{
	"bwaves", "cactusADM", "dealII", "gromacs", "leslie3d",
	"mcf", "milc", "namd", "soplex", "zeusmp",
}

// Suite construction. Sizes are small so full multi-chip campaigns stay
// tractable: one SDC replay (a Reset injector plus a kernel run)
// measured 3–27 µs for most programs and 43–82 µs for astar and h264ref
// on a 2-vCPU Xeon VM (Go 1.24); a sweep scores a fold-only program's
// cell from its record in 0.5–1.7 µs (BenchmarkSDCReplay). Each entry
// registers itself; the slice is never read.
var _ = []*Spec{
	// --- the 10 primary (Fig. 3/4) programs, reference inputs ---
	register(&Spec{Name: "bwaves", Input: "ref", Size: 400, Kernel: kBwaves,
		Profile: sp(0.95, 0.95, 0.60, 0.30, 0.85), Score: 1.000}),
	register(&Spec{Name: "cactusADM", Input: "ref", Size: 360, Kernel: kCactusADM,
		Profile: sp(0.85, 0.90, 0.55, 0.25, 0.75), Score: 0.895}),
	register(&Spec{Name: "dealII", Input: "ref", Size: 380, Kernel: kDealII,
		Profile: sp(0.80, 0.75, 0.50, 0.45, 0.70), Score: 0.842}),
	register(&Spec{Name: "gromacs", Input: "ref", Size: 420, Kernel: kGromacs,
		Profile: sp(0.75, 0.80, 0.35, 0.40, 0.65), Score: 0.789}),
	register(&Spec{Name: "leslie3d", Input: "ref", Size: 390, Kernel: kLeslie3d,
		Profile: sp(0.90, 0.95, 0.55, 0.30, 0.80), Score: 0.947}),
	register(&Spec{Name: "mcf", Input: "ref", Size: 500, Kernel: kMcf,
		Profile: sp(0.55, 0.05, 0.95, 0.70, 0.30), Score: 0.737}),
	register(&Spec{Name: "milc", Input: "ref", Size: 350, Kernel: kMilc,
		Profile: sp(0.85, 0.85, 0.65, 0.25, 0.70), Score: 0.895}),
	register(&Spec{Name: "namd", Input: "ref", Size: 430, Kernel: kNamd,
		Profile: sp(0.70, 0.75, 0.30, 0.35, 0.75), Score: 0.789}),
	register(&Spec{Name: "soplex", Input: "ref", Size: 370, Kernel: kSoplex,
		Profile: sp(0.70, 0.55, 0.70, 0.55, 0.55), Score: 0.842}),
	register(&Spec{Name: "zeusmp", Input: "ref", Size: 400, Kernel: kZeusmp,
		Profile: sp(0.85, 0.85, 0.50, 0.30, 0.75), Score: 0.895}),

	// --- remaining prediction-suite programs, reference inputs ---
	register(&Spec{Name: "perlbench", Input: "ref", Size: 460, Kernel: kPerlbench,
		Profile: sp(0.70, 0.05, 0.55, 0.85, 0.55), Score: 0.760}),
	register(&Spec{Name: "bzip2", Input: "ref", Size: 480, Kernel: kBzip2, fold: fBzip2,
		Profile: sp(0.75, 0.02, 0.65, 0.70, 0.60), Score: 0.910}),
	register(&Spec{Name: "gcc", Input: "ref", Size: 440, Kernel: kGcc,
		Profile: sp(0.65, 0.03, 0.70, 0.80, 0.50), Score: 0.940}),
	register(&Spec{Name: "gobmk", Input: "ref", Size: 420, Kernel: kGobmk, fold: fGobmk,
		Profile: sp(0.72, 0.02, 0.45, 0.90, 0.55), Score: 0.850}),
	register(&Spec{Name: "hmmer", Input: "ref", Size: 450, Kernel: kHmmer,
		Profile: sp(0.85, 0.10, 0.45, 0.45, 0.80), Score: 0.950}),
	register(&Spec{Name: "sjeng", Input: "ref", Size: 200, Kernel: kSjeng, fold: fSjeng,
		Profile: sp(0.75, 0.02, 0.40, 0.90, 0.60), Score: 0.980}),
	register(&Spec{Name: "libquantum", Input: "ref", Size: 470, Kernel: kLibquantum,
		Profile: sp(0.60, 0.15, 0.80, 0.40, 0.50), Score: 0.900}),
	register(&Spec{Name: "h264ref", Input: "ref", Size: 260, Kernel: kH264ref, fold: fH264ref,
		Profile: sp(0.85, 0.25, 0.55, 0.55, 0.75), Score: 0.780}),
	register(&Spec{Name: "omnetpp", Input: "ref", Size: 440, Kernel: kOmnetpp, fold: fOmnetpp,
		Profile: sp(0.55, 0.03, 0.85, 0.70, 0.35), Score: 0.960}),
	register(&Spec{Name: "astar", Input: "ref", Size: 220, Kernel: kAstar, fold: fAstar,
		Profile: sp(0.62, 0.05, 0.75, 0.75, 0.45), Score: 0.880}),
	register(&Spec{Name: "xalancbmk", Input: "ref", Size: 430, Kernel: kXalancbmk, fold: fXalancbmk,
		Profile: sp(0.60, 0.02, 0.75, 0.80, 0.45), Score: 0.810}),
	register(&Spec{Name: "gamess", Input: "ref", Size: 400, Kernel: kGamess,
		Profile: sp(0.88, 0.90, 0.40, 0.35, 0.80), Score: 0.800}),
	register(&Spec{Name: "povray", Input: "ref", Size: 380, Kernel: kPovray, fold: fPovray,
		Profile: sp(0.82, 0.85, 0.35, 0.50, 0.70), Score: 0.840}),
	register(&Spec{Name: "calculix", Input: "ref", Size: 390, Kernel: kCalculix,
		Profile: sp(0.80, 0.80, 0.50, 0.40, 0.70), Score: 0.760}),
	register(&Spec{Name: "GemsFDTD", Input: "ref", Size: 410, Kernel: kGemsFDTD,
		Profile: sp(0.88, 0.92, 0.60, 0.25, 0.78), Score: 0.780}),
	register(&Spec{Name: "lbm", Input: "ref", Size: 420, Kernel: kLbm,
		Profile: sp(0.85, 0.90, 0.70, 0.15, 0.80), Score: 0.820}),

	// --- second input datasets: the paper uses all SPEC input sets,
	// giving 40 (program, input) samples for the §4.3.1 regression ---
	register(&Spec{Name: "bwaves", Input: "train", Size: 180, Kernel: kBwaves,
		Profile: sp(0.93, 0.93, 0.58, 0.30, 0.83), Score: 0.990}),
	register(&Spec{Name: "gromacs", Input: "train", Size: 200, Kernel: kGromacs,
		Profile: sp(0.73, 0.78, 0.37, 0.40, 0.63), Score: 0.782}),
	register(&Spec{Name: "mcf", Input: "train", Size: 240, Kernel: kMcf,
		Profile: sp(0.57, 0.05, 0.92, 0.68, 0.32), Score: 0.745}),
	register(&Spec{Name: "milc", Input: "su3imp", Size: 170, Kernel: kMilc,
		Profile: sp(0.84, 0.86, 0.63, 0.25, 0.71), Score: 0.890}),
	register(&Spec{Name: "soplex", Input: "pds-50", Size: 180, Kernel: kSoplex,
		Profile: sp(0.72, 0.53, 0.72, 0.53, 0.56), Score: 0.848}),
	register(&Spec{Name: "perlbench", Input: "diffmail", Size: 230, Kernel: kPerlbench,
		Profile: sp(0.68, 0.05, 0.57, 0.87, 0.53), Score: 0.750}),
	register(&Spec{Name: "bzip2", Input: "chicken", Size: 230, Kernel: kBzip2, fold: fBzip2,
		Profile: sp(0.77, 0.02, 0.62, 0.68, 0.62), Score: 0.920}),
	register(&Spec{Name: "gcc", Input: "166", Size: 220, Kernel: kGcc,
		Profile: sp(0.63, 0.03, 0.72, 0.82, 0.48), Score: 0.930}),
	register(&Spec{Name: "gobmk", Input: "13x13", Size: 200, Kernel: kGobmk, fold: fGobmk,
		Profile: sp(0.74, 0.02, 0.43, 0.92, 0.56), Score: 0.860}),
	register(&Spec{Name: "hmmer", Input: "nph3", Size: 220, Kernel: kHmmer,
		Profile: sp(0.87, 0.10, 0.43, 0.43, 0.82), Score: 0.960}),
	register(&Spec{Name: "sjeng", Input: "train", Size: 100, Kernel: kSjeng, fold: fSjeng,
		Profile: sp(0.73, 0.02, 0.42, 0.88, 0.58), Score: 0.970}),
	register(&Spec{Name: "h264ref", Input: "sss", Size: 130, Kernel: kH264ref, fold: fH264ref,
		Profile: sp(0.87, 0.25, 0.53, 0.53, 0.77), Score: 0.790}),
	register(&Spec{Name: "astar", Input: "rivers", Size: 110, Kernel: kAstar, fold: fAstar,
		Profile: sp(0.60, 0.05, 0.78, 0.77, 0.43), Score: 0.870}),
	register(&Spec{Name: "povray", Input: "train", Size: 190, Kernel: kPovray, fold: fPovray,
		Profile: sp(0.80, 0.83, 0.37, 0.52, 0.68), Score: 0.830}),
}

// PrimarySuite returns the ten benchmarks of the characterization figures
// (reference inputs), in the paper's order.
func PrimarySuite() []*Spec {
	out := make([]*Spec, len(primaryNames))
	for i, name := range primaryNames {
		s, err := Lookup(name + "/ref")
		if err != nil {
			panic(err)
		}
		out[i] = s
	}
	return out
}

// PredictionSuite returns all 40 (program, input) samples used by the §4
// regression experiments, sorted by ID.
func PredictionSuite() []*Spec { return All() }
