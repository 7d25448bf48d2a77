package workload

import "testing"

// pinnedGoldens freezes every suite kernel's fault-free output. The
// calibration of the whole reproduction (Vmin anchors, SDC detection,
// severity values) assumes these kernels compute exactly this; an
// accidental kernel edit that changes an output surfaces here instead of
// as a mysterious shift in the experiment results. Update deliberately
// when a kernel is intentionally changed.
//
// Portability note: values were pinned on linux/amd64. Kernels using
// math.Sin/Cos/Exp may compute slightly differently where Go uses platform
// assembly, which would shift some checksums; SDC detection itself is
// unaffected (goldens are recomputed at runtime), only this pinning test.
var pinnedGoldens = map[string]uint64{
	"GemsFDTD/ref":       0x81cb5c3ac00d6758,
	"astar/ref":          0x82fc84da15049698,
	"astar/rivers":       0xbc606b8b20765018,
	"bwaves/ref":         0x63a6f5784b2fa029,
	"bwaves/train":       0x1dc9d96fa20ea913,
	"bzip2/chicken":      0x454203ca4e8f19b8,
	"bzip2/ref":          0x1b2c74446dcd7714,
	"cactusADM/ref":      0xe2807abf4d20e1c5,
	"calculix/ref":       0x754153b6e5a13f6e,
	"dealII/ref":         0xd0e9f6641f283c35,
	"gamess/ref":         0xea1d2fddd9fc9777,
	"gcc/166":            0xe186bf048466b661,
	"gcc/ref":            0xd3b0429bd2d0fdf8,
	"gobmk/13x13":        0x08da4491b1fa1a21,
	"gobmk/ref":          0x6722dcbc341b686e,
	"gromacs/ref":        0xa999c12906f93b60,
	"gromacs/train":      0x1b757ee3bf482f88,
	"h264ref/ref":        0x6b41a0356b63b0b0,
	"h264ref/sss":        0x05efe6b78765808e,
	"hmmer/nph3":         0x487e8c86ae861f5e,
	"hmmer/ref":          0xe1018caca75d5a98,
	"lbm/ref":            0xf73e15b463a1e190,
	"leslie3d/ref":       0x0a7065cebd1cf954,
	"libquantum/ref":     0x1902d244743a0320,
	"mcf/ref":            0xabfb3f3791ab2acb,
	"mcf/train":          0xc96418f9b10ece37,
	"milc/ref":           0x68c81b418dc6065d,
	"milc/su3imp":        0x5487255a4af685ee,
	"namd/ref":           0x68abf6ba28165b38,
	"omnetpp/ref":        0x86c35c57ced9e377,
	"perlbench/diffmail": 0xbf2a914340d00bf4,
	"perlbench/ref":      0x93faa55ee28b766b,
	"povray/ref":         0xfe3fff684faf5909,
	"povray/train":       0x60f825002eafe929,
	"sjeng/ref":          0x94b21549fe7694bf,
	"sjeng/train":        0x48bbf4ac3c3b92c9,
	"soplex/pds-50":      0x51c73a703acd05ac,
	"soplex/ref":         0x6e4648ec988a9fae,
	"xalancbmk/ref":      0x5a5c2b2f1a62fe22,
	"zeusmp/ref":         0x55b2d33ef028e734,
}

func TestGoldensPinned(t *testing.T) {
	if len(pinnedGoldens) != len(All()) {
		t.Fatalf("pinned %d goldens for %d specs — update the table", len(pinnedGoldens), len(All()))
	}
	for _, s := range All() {
		want, ok := pinnedGoldens[s.ID()]
		if !ok {
			t.Errorf("%s: no pinned golden — update the table", s.ID())
			continue
		}
		if got := s.Golden(); got != want {
			t.Errorf("%s: golden 0x%016x, pinned 0x%016x — kernel changed", s.ID(), got, want)
		}
	}
}

// countedKernelCalls counts kernel runs, to observe the golden memo.
var countedKernelCalls int

func countedKernel(size int, inj Injector) uint64 {
	countedKernelCalls++
	h := uint64(size)
	for i := 0; i < 64; i++ {
		h = inj.Word(fold(h, uint64(i)))
	}
	return h
}

// offsetKernel returns a closure of one function literal: every kernel
// it builds shares its code, and each computes from its own offset.
func offsetKernel(off uint64) Kernel {
	return func(size int, inj Injector) uint64 {
		h := off
		for i := 0; i < 64; i++ {
			h = inj.Word(fold(h, uint64(size+i)))
		}
		return h
	}
}

// Golden is memoized per Spec: a second call does not rerun the kernel,
// and no Spec takes another's golden, even where two kernels share their
// code and their size.
func TestGoldenIsPerSpec(t *testing.T) {
	countedKernelCalls = 0
	a := &Spec{Name: "cachetest", Input: "a", Size: 1000, Kernel: countedKernel}
	if a.Golden() != a.Golden() {
		t.Fatal("repeated Golden calls disagree")
	}
	if countedKernelCalls != 1 {
		t.Errorf("kernel ran %d times for two Golden calls on one Spec, want 1", countedKernelCalls)
	}
	for _, off := range []uint64{1, 2} {
		s := &Spec{Name: "closure", Input: "x", Size: 200, Kernel: offsetKernel(off)}
		if got, want := s.Golden(), s.Run(Nop{}); got != want {
			t.Errorf("closure %d: golden 0x%016x, its own run 0x%016x", off, got, want)
		}
	}
}
