// Fault-injection hooks. Kernels thread every intermediate result of their
// outer loops through an Injector, so that a timing-path failure decided by
// the silicon model can corrupt real computation state — the framework then
// detects the SDC the same way the paper does, by comparing program output
// against the golden output from a nominal-voltage run. A fold-only
// program's values pass through the injector on their way into its
// checksum (foldProgram).
package workload

import (
	"math"
	"math/rand"
)

// Injector possibly corrupts in-flight values. Implementations must be
// deterministic given their construction inputs.
type Injector interface {
	// Word passes a 64-bit integer datum through the fault site.
	Word(x uint64) uint64
	// F64 passes a floating-point datum through the fault site.
	F64(x float64) float64
}

// Nop is the fault-free injector used for golden runs.
type Nop struct{}

// Word returns x unchanged.
func (Nop) Word(x uint64) uint64 { return x }

// F64 returns x unchanged.
func (Nop) F64(x float64) float64 { return x }

// minHookCalls is the number of injector calls every kernel is guaranteed
// to make, regardless of its size parameter. Bitflip schedules its flips
// within this window so that no requested corruption is silently lost.
const minHookCalls = 64

// Bitflip corrupts a fixed number of values at pseudo-random hook calls.
// Flips target high mantissa/exponent bits so the corruption propagates to
// the program output instead of vanishing in rounding — mirroring how
// timing-path failures latch wrong values into architectural state.
//
// The schedule is a fixed array over the hook-call window, so a sweep can
// hold one Bitflip and Reset it per replay without allocating.
type Bitflip struct {
	sched [minHookCalls]uint8 // bit position + 1 at a fault site, 0 elsewhere
	flips int
	calls int
}

// NewBitflip schedules `flips` corruptions using rng. At least one flip is
// scheduled when flips ≥ 1; zero flips yields a pass-through injector.
func NewBitflip(rng *rand.Rand, flips int) *Bitflip {
	b := new(Bitflip)
	b.Reset(rng, flips)
	return b
}

// Reset reschedules b in place for a fresh run, drawing from rng exactly
// as NewBitflip does: per flip, a call index (Intn(64), redrawn when it
// is already a fault site) and then a bit (Intn(23)).
//
//xvolt:hotpath once per SDC replay of every sweep
func (b *Bitflip) Reset(rng *rand.Rand, flips int) {
	b.sched = [minHookCalls]uint8{}
	b.flips, b.calls = 0, 0
	for b.flips < flips && b.flips < minHookCalls {
		idx := rng.Intn(minHookCalls)
		if b.sched[idx] != 0 {
			continue
		}
		// Bits 40–62 hit the high mantissa and exponent of a float64 and
		// the high half of integer checksums: always observable.
		b.sched[idx] = uint8(40+rng.Intn(23)) + 1
		b.flips++
	}
}

// step advances the hook-call counter and returns the scheduled bit + 1
// for this call, or 0 when it is not a fault site.
func (b *Bitflip) step() uint {
	c := b.calls
	b.calls++
	if uint(c) < minHookCalls {
		return uint(b.sched[c])
	}
	return 0
}

// Word flips a scheduled bit of x, if this call is a fault site.
func (b *Bitflip) Word(x uint64) uint64 {
	if s := b.step(); s != 0 {
		return x ^ (1 << (s - 1))
	}
	return x
}

// F64 flips a scheduled bit of x's IEEE-754 representation.
func (b *Bitflip) F64(x float64) float64 {
	if s := b.step(); s != 0 {
		return flipF64Bit(x, s-1)
	}
	return x
}

// foldRecord is the checksum of a fold-only run under b's schedule,
// folded from the run's recorded hook-site values: the value at a fault
// site has its scheduled bit flipped, and every value is folded as
// foldProgram.checksum folds it. Only the first minHookCalls sites can be
// fault sites. b's call counter is left as it is.
//
//xvolt:hotpath once per SDC cell of a fold-only sweep
func (b *Bitflip) foldRecord(p *foldProgram, record []uint64) uint64 {
	h := p.seed
	head, tail := record, record[:0]
	if len(record) > minHookCalls {
		head, tail = record[:minHookCalls], record[minHookCalls:]
	}
	if p.float {
		for i, x := range head {
			if s := b.sched[i]; s != 0 {
				x ^= 1 << (s - 1)
			}
			h = foldF64(h, math.Float64frombits(x))
		}
		for _, x := range tail {
			h = foldF64(h, math.Float64frombits(x))
		}
		return h
	}
	for i, x := range head {
		if s := b.sched[i]; s != 0 {
			x ^= 1 << (s - 1)
		}
		h = fold(h, x)
	}
	for _, x := range tail {
		h = fold(h, x)
	}
	return h
}
