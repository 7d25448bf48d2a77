// Fixture for the seedflow analyzer: rand.NewSource arguments must
// trace back to a seed, never a literal or the wall clock.
package seedflow

import (
	"math/rand"
	"time"

	"fixture/seedflowdep"
)

type opts struct{ Seed int64 }

// Bad: literal, wall clock, and an untraceable variable.
func bad(n int) *rand.Rand {
	_ = rand.New(rand.NewSource(42))                    // literal
	_ = rand.New(rand.NewSource(time.Now().UnixNano())) // wall clock
	_ = seedflowdep.NewRig(7)                           // literal through a cross-package sink
	x := int64(n)
	return rand.New(rand.NewSource(x)) // untraceable identifier
}

// good derives every stream from a seed-carrying identity.
func good(seed int64, o opts) *rand.Rand {
	_ = rand.New(rand.NewSource(seed))
	_ = rand.New(rand.NewSource(o.Seed))
	_ = rand.New(rand.NewSource(seedflowdep.DeriveSeed(seed, 3)))
	_ = seedflowdep.NewRig(o.Seed + 1)
	return rand.New(rand.NewSource(int64(uint64(seed))))
}

// configured vets a constructor named in SeedSinks, directly and through
// a one-level wrapper.
func configured(seed int64) {
	_ = seedflowdep.NewStream(9) // literal through a configured sink
	_ = stream(seed)
}

// stream passes its own parameter to a configured sink, which makes it a
// sink too: its callers' arguments are vetted, not its own.
func stream(n int64) *rand.Rand { return seedflowdep.NewStream(n) }
