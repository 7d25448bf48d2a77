package workload

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// replaySink keeps the benchmarks' scored outputs live.
var replaySink uint64

// foldOnlySpecs are the suite specs whose programs are fold-only.
func foldOnlySpecs() []*Spec {
	var out []*Spec
	for _, s := range All() {
		if s.fold != nil {
			out = append(out, s)
		}
	}
	return out
}

// BenchmarkSDCReplay is the sweep's SDC path per spec: one Reset of a
// held injector and one Replay.Score per op, over the schedules a seeded
// rng draws (1–3 flips, cycling). A fold-only spec's record is taken
// before the timer starts, as a sweep takes it at its first SDC cell, so
// an op is one record fold; any other spec's op is a kernel run.
func BenchmarkSDCReplay(b *testing.B) {
	for _, s := range All() {
		s.Golden()
		b.Run(s.ID(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var inj Bitflip
			var r Replay
			r.Begin(s)
			r.Score(&inj)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inj.Reset(rng, 1+i%3)
				replaySink = r.Score(&inj)
			}
		})
	}
}

// BenchmarkSDCReplayKernel times a fold-only spec's full run behind the
// same Reset injector: its kernel, the body and the fold through the
// injector, which Spec.Run takes outside a sweep. Against
// BenchmarkSDCReplay it is what scoring from the record saves per cell.
func BenchmarkSDCReplayKernel(b *testing.B) {
	for _, s := range foldOnlySpecs() {
		b.Run(s.ID(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var inj Bitflip
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inj.Reset(rng, 1+i%3)
				replaySink = s.Run(&inj)
			}
		})
	}
}

// BenchmarkSDCReplayReference is BenchmarkSDCReplayKernel for the frozen
// pre-rewrite kernels of reference_test.go, behind the same Reset
// injector: the gap between a spec's kernel and reference results is
// what its rewrite saves on its own, apart from the injector's saving.
func BenchmarkSDCReplayReference(b *testing.B) {
	for _, s := range All() {
		ref, ok := referenceKernels[s.Name]
		if !ok {
			continue
		}
		b.Run(s.ID(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var inj Bitflip
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inj.Reset(rng, 1+i%3)
				ref(s.Size, &inj)
			}
		})
	}
}

// The suite's fold-only programs are exactly these, one or two inputs
// each: 14 specs.
func TestFoldOnlyPrograms(t *testing.T) {
	var names []string
	for _, s := range foldOnlySpecs() {
		if len(names) == 0 || names[len(names)-1] != s.Name {
			names = append(names, s.Name)
		}
	}
	want := []string{"astar", "bzip2", "gobmk", "h264ref", "omnetpp", "povray", "sjeng", "xalancbmk"}
	if !slices.Equal(names, want) || len(foldOnlySpecs()) != 14 {
		t.Errorf("fold-only programs %v over %d specs, want %v over 14", names, len(foldOnlySpecs()), want)
	}
}

// singleFlip schedules one flip of bit at site.
func singleFlip(site int, bit uint) Bitflip {
	var b Bitflip
	b.sched[site] = uint8(bit) + 1
	b.flips = 1
	return b
}

// A sweep's record fold must score a schedule exactly as the program's
// frozen kernel-form reference computes it: every single flip the
// injector can schedule (64 sites × bits 40–62) and replaySchedules
// seeded 1–3-flip schedules drawn by Reset, from one record per spec.
// (TestReplayMatchesReference pins the full run to the same kernels.)
func TestFoldReplayMatchesKernel(t *testing.T) {
	for _, s := range foldOnlySpecs() {
		ref := referenceKernels[s.Name]
		var r Replay
		r.Begin(s)
		bad := 0
		check := func(what string, inj Bitflip) {
			a, c := inj, inj
			if got, want := r.Score(&a), ref(s.Size, &c); got != want {
				if bad++; bad <= 3 {
					t.Errorf("%s %s: record 0x%016x, reference 0x%016x", s.ID(), what, got, want)
				}
			}
		}
		for site := 0; site < minHookCalls; site++ {
			for bit := uint(40); bit <= 62; bit++ {
				check("single flip", singleFlip(site, bit))
			}
		}
		var inj Bitflip
		for seed := int64(0); seed < replaySchedules; seed++ {
			inj.Reset(rand.New(rand.NewSource(seed)), 1+int(seed%3))
			check("seeded schedule", inj)
		}
		if bad > 3 {
			t.Errorf("%s: %d schedules differ", s.ID(), bad)
		}
	}
}

// Begin drops the previous sweep's record: one Replay reused across the
// sweeps of different specs scores each against its own program.
func TestReplayBeginDropsRecord(t *testing.T) {
	var r Replay
	for _, s := range append(foldOnlySpecs(), foldOnlySpecs()...) {
		inj := singleFlip(7, 50)
		want := s.Run(&inj)
		r.Begin(s)
		inj = singleFlip(7, 50)
		if got := r.Score(&inj); got != want {
			t.Errorf("%s: scored 0x%016x after another sweep, run 0x%016x", s.ID(), got, want)
		}
	}
}

// Scoring a cell from the record allocates nothing, and neither does a
// fold-only program's full run: its values live on the kernel's stack.
func TestReplayScoreAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var inj Bitflip
	var r Replay
	for _, s := range foldOnlySpecs() {
		r.Begin(s)
		r.Score(&inj)
		if a := testing.AllocsPerRun(100, func() {
			inj.Reset(rng, 2)
			r.Score(&inj)
		}); a != 0 {
			t.Errorf("%s: scoring a cell made %v allocations, want 0", s.ID(), a)
		}
		if a := testing.AllocsPerRun(100, func() {
			inj.Reset(rng, 2)
			s.Run(&inj)
		}); a != 0 {
			t.Errorf("%s: a full run made %v allocations, want 0", s.ID(), a)
		}
	}
}

// siteProbe records the value entering every hook site, a float's as its
// bit pattern, and flips one bit of one site's value.
type siteProbe struct {
	at    int // the site to flip; -1 for none
	bit   uint
	calls int
	in    []uint64
}

func (p *siteProbe) pass(x uint64) uint64 {
	p.in = append(p.in, x)
	if p.calls == p.at {
		x ^= 1 << p.bit
	}
	p.calls++
	return x
}

func (p *siteProbe) Word(x uint64) uint64 { return p.pass(x) }

func (p *siteProbe) F64(x float64) float64 {
	return math.Float64frombits(p.pass(math.Float64bits(x)))
}

// feedsForward reports whether some single flip — at one of the first
// minHookCalls sites, of any bit 0–63 — changes the value entering a
// later site, or the number of sites, when the kernel runs at size.
func feedsForward(k Kernel, size int) bool {
	base := &siteProbe{at: -1}
	k(size, base)
	p := &siteProbe{in: make([]uint64, 0, len(base.in))}
	for site := 0; site < minHookCalls; site++ {
		for bit := uint(0); bit < 64; bit++ {
			*p = siteProbe{at: site, bit: bit, in: p.in[:0]}
			k(size, p)
			if !slices.Equal(p.in[site+1:], base.in[site+1:]) {
				return true
			}
		}
	}
	return false
}

// Every program left in kernel form feeds some single flip into a later
// site's value, so none of them could be scored from a record — no
// fold-only program was missed. libquantum feeds back only through its
// low 20 bits, so every bit is tried.
func TestKernelFormProgramsFeedForward(t *testing.T) {
	for _, s := range All() {
		if s.fold == nil && !feedsForward(s.Kernel, s.Size) {
			t.Errorf("%s: no single flip reaches a later site, so the program is fold-only", s.ID())
		}
	}
}

// FuzzFoldReplay scores arbitrary fault schedules — any subset of the
// window's sites, any bit 0–63 — through each fold-only spec's sweep
// record, through its full run and through its frozen kernel-form
// reference; the three must agree. Input byte i schedules site i: 0
// leaves it alone, b flips bit (b−1) mod 64.
func FuzzFoldReplay(f *testing.F) {
	specs := foldOnlySpecs()
	replays := make([]Replay, len(specs))
	for i, s := range specs {
		replays[i].Begin(s)
	}
	f.Add([]byte{})
	f.Add([]byte{41})
	f.Add([]byte{0, 0, 0, 63, 0, 52})
	f.Add(bytes.Repeat([]byte{64}, minHookCalls))
	f.Add(bytes.Repeat([]byte{1, 0, 33}, 30))
	f.Fuzz(func(t *testing.T, sched []byte) {
		var inj Bitflip
		for i, b := range sched[:min(len(sched), minHookCalls)] {
			if b != 0 {
				inj.sched[i] = (b-1)%64 + 1
				inj.flips++
			}
		}
		for i, s := range specs {
			a, b, c := inj, inj, inj
			got, full, want := replays[i].Score(&a), s.Run(&b), referenceKernels[s.Name](s.Size, &c)
			if got != want || full != want {
				t.Fatalf("%s schedule %v: record 0x%016x, run 0x%016x, reference 0x%016x", s.ID(), inj.sched, got, full, want)
			}
		}
	})
}
