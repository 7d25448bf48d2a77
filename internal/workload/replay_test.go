package workload

import (
	"math/rand"
	"testing"
)

// BenchmarkSDCReplay is the sweep's SDC path per spec: one Reset of a
// held injector and one kernel replay per op, over the schedules a
// seeded rng draws (1–3 flips, cycling).
func BenchmarkSDCReplay(b *testing.B) {
	for _, s := range All() {
		s.Golden()
		b.Run(s.ID(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var inj Bitflip
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inj.Reset(rng, 1+i%3)
				s.Run(&inj)
			}
		})
	}
}

// BenchmarkSDCReplayReference is BenchmarkSDCReplay for the frozen
// pre-rewrite kernels of reference_test.go, behind the same Reset
// injector: the gap between a spec's two results is what its kernel
// rewrite saves on its own, apart from the injector's saving.
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
